package align

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ontology"
)

// erroneous counts a's ground-truth-wrong correspondences.
func erroneous(a Alignment) int {
	n := 0
	for _, c := range a.Correspondences {
		if !c.Correct {
			n++
		}
	}
	return n
}

func TestLevenshtein(t *testing.T) {
	l := Levenshtein{}
	if got := l.Score("author", "author"); got != 1 {
		t.Errorf("identical score = %v", got)
	}
	if got := l.Score("Author", "author"); got != 1 {
		t.Errorf("case-insensitive score = %v", got)
	}
	if got := l.Score("", ""); got != 1 {
		t.Errorf("empty score = %v", got)
	}
	// editor vs edition: distance 2 over max length 7.
	want := 1 - 2.0/7.0
	if got := l.Score("editor", "edition"); math.Abs(got-want) > 1e-12 {
		t.Errorf("editor/edition = %v, want %v", got, want)
	}
	if got := l.Score("abc", "xyz"); got != 0 {
		t.Errorf("disjoint score = %v, want 0", got)
	}
	if l.Name() == "" {
		t.Error("empty name")
	}
}

func TestEditDistanceProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 20 || len(b) > 20 {
			return true
		}
		d := editDistance(a, b)
		if d != editDistance(b, a) {
			return false // symmetry
		}
		ra, rb := []rune(a), []rune(b)
		diff := len(ra) - len(rb)
		if diff < 0 {
			diff = -diff
		}
		max := len(ra)
		if len(rb) > max {
			max = len(rb)
		}
		return d >= diff && d <= max // standard bounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrigram(t *testing.T) {
	tr := Trigram{}
	if got := tr.Score("author", "author"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := tr.Score("", ""); got != 1 {
		t.Errorf("empty = %v", got)
	}
	if got := tr.Score("abcdef", "uvwxyz"); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
	if a, b := tr.Score("editor", "edtr"), tr.Score("editor", "zzz"); a <= b {
		t.Errorf("trigram ordering wrong: %v <= %v", a, b)
	}
}

func TestPrefix(t *testing.T) {
	p := Prefix{}
	// Common prefix "edit" (4 chars) over the shorter length 6.
	if got := p.Score("edition", "editor"); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("edition/editor = %v, want 4/6", got)
	}
	if got := p.Score("", "x"); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := p.Score("abc", "abc"); got != 1 {
		t.Errorf("identical = %v", got)
	}
}

func TestBest(t *testing.T) {
	b := Best{Levenshtein{}, Prefix{}}
	if b.Name() == "" {
		t.Error("empty name")
	}
	lev, pre := Levenshtein{}.Score("edition", "editor"), Prefix{}.Score("edition", "editor")
	want := math.Max(lev, pre)
	if got := b.Score("edition", "editor"); got != want {
		t.Errorf("Best = %v, want max(%v,%v)", got, lev, pre)
	}
}

func TestAlignValidation(t *testing.T) {
	ref := ontology.Reference()
	if _, err := Align(nil, ref, Levenshtein{}, Options{Cutoff: 0.5}); err == nil {
		t.Error("nil ontology: want error")
	}
	if _, err := Align(ref, ref, Levenshtein{}, Options{Cutoff: 2}); err == nil {
		t.Error("bad cutoff: want error")
	}
	if _, err := Align(ref, ref, Levenshtein{}, Options{Cutoff: 0.5, SecondBestRate: 2}); err == nil {
		t.Error("bad rate: want error")
	}
	if _, err := Align(ref, ref, Levenshtein{}, Options{Cutoff: 0.5, SecondBestRate: 0.1}); err == nil {
		t.Error("noise without rng: want error")
	}
}

func TestAlignSelfIsPerfect(t *testing.T) {
	ref := ontology.Reference()
	a, err := Align(ref, ref, Levenshtein{}, Options{Cutoff: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Correspondences) != len(ref.Concepts) {
		t.Errorf("self-alignment found %d of %d", len(a.Correspondences), len(ref.Concepts))
	}
	if erroneous(a) != 0 {
		t.Errorf("self-alignment has %d errors", erroneous(a))
	}
}

func TestAlignFalseFriend(t *testing.T) {
	ref := ontology.Reference()
	fr, err := ontology.Generate(ontology.VariantFrench)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Align(ref, fr, Levenshtein{}, Options{Cutoff: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	// The aligner should fall for "editor" → "editeur" (which is really
	// publisher): a genuinely erroneous correspondence.
	found := false
	for _, c := range a.Correspondences {
		if c.From == "editor" && c.To == "editeur" {
			found = true
			if c.Correct {
				t.Error("editor→editeur marked correct; it is a false friend")
			}
		}
	}
	if !found {
		t.Error("aligner did not produce the editor→editeur false friend")
	}
	if erroneous(a) == 0 {
		t.Error("alignment to French variant has no errors; traps ineffective")
	}
}

func TestAlignPairsAndErroneous(t *testing.T) {
	ref := ontology.Reference()
	a, _ := Align(ref, ref, Levenshtein{}, Options{Cutoff: 0.9})
	pairs := a.Pairs()
	if len(pairs) != len(a.Correspondences) {
		t.Errorf("Pairs len = %d", len(pairs))
	}
	if pairs["author"] != "author" {
		t.Errorf("pairs[author] = %q", pairs["author"])
	}
}

func TestSecondBestNoiseInjectsErrors(t *testing.T) {
	ref := ontology.Reference()
	clean, err := Align(ref, ref, Levenshtein{}, Options{Cutoff: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Align(ref, ref, Levenshtein{}, Options{
		Cutoff: 0.3, SecondBestRate: 0.5, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if erroneous(noisy) <= erroneous(clean) {
		t.Errorf("noise did not inject errors: %d vs %d", erroneous(noisy), erroneous(clean))
	}
}

func TestSecondBestNoiseDeterministic(t *testing.T) {
	ref := ontology.Reference()
	fr, _ := ontology.Generate(ontology.VariantFrench)
	run := func() Alignment {
		a, err := Align(ref, fr, Levenshtein{}, Options{
			Cutoff: 0.4, SecondBestRate: 0.2, Rng: rand.New(rand.NewSource(9)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := run(), run()
	if len(a.Correspondences) != len(b.Correspondences) {
		t.Fatal("nondeterministic alignment size")
	}
	for i := range a.Correspondences {
		if a.Correspondences[i] != b.Correspondences[i] {
			t.Fatalf("nondeterministic correspondence %d", i)
		}
	}
}

func TestSuiteAlignments(t *testing.T) {
	onts, err := ontology.Suite()
	if err != nil {
		t.Fatal(err)
	}
	aligns, err := SuiteAlignments(onts, Levenshtein{}, Options{Cutoff: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if len(aligns) != 30 {
		t.Errorf("got %d alignments, want 30 ordered pairs", len(aligns))
	}
	total, wrong := 0, 0
	for _, a := range aligns {
		total += len(a.Correspondences)
		wrong += erroneous(a)
	}
	// Calibration window around the paper's 396 / 86 (21.7%).
	if total < 350 || total > 600 {
		t.Errorf("total correspondences = %d, outside calibration window", total)
	}
	frac := float64(wrong) / float64(total)
	if frac < 0.10 || frac > 0.35 {
		t.Errorf("erroneous fraction = %.2f, outside calibration window", frac)
	}
}
