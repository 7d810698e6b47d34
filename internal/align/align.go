// Package align implements the simple automatic alignment techniques of
// §5.2: string-similarity matchers that generate attribute correspondences
// between pairs of ontologies. The mappings they produce are deliberately
// imperfect — that is the point: the message passing scheme must discover
// which generated correspondences are wrong, and the hidden reference IDs
// of package ontology provide the ground truth to score it.
package align

import (
	"fmt"
	"sort"
	"strings"

	"math/rand"

	"repro/internal/ontology"
	"repro/internal/schema"
)

// Matcher scores the similarity of two concept names in [0,1].
type Matcher interface {
	Name() string
	Score(a, b string) float64
}

// Levenshtein scores 1 − normalized edit distance.
type Levenshtein struct{}

// Name implements Matcher.
func (Levenshtein) Name() string { return "levenshtein" }

// Score implements Matcher.
func (Levenshtein) Score(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	d := editDistance(a, b)
	max := len(a)
	if len(b) > max {
		max = len(b)
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(d)/float64(max)
}

func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Trigram scores the Jaccard similarity of character 3-gram sets (padded).
type Trigram struct{}

// Name implements Matcher.
func (Trigram) Name() string { return "trigram" }

// Score implements Matcher.
func (Trigram) Score(a, b string) float64 {
	ga, gb := grams(strings.ToLower(a)), grams(strings.ToLower(b))
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func grams(s string) map[string]bool {
	s = "##" + s + "##"
	out := make(map[string]bool, len(s))
	for i := 0; i+3 <= len(s); i++ {
		out[s[i:i+3]] = true
	}
	return out
}

// Prefix scores the length of the common lowercase prefix relative to the
// shorter name — cheap, and exactly the kind of naive matcher that confuses
// "edition" with "editor".
type Prefix struct{}

// Name implements Matcher.
func (Prefix) Name() string { return "prefix" }

// Score implements Matcher.
func (Prefix) Score(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return float64(i) / float64(n)
}

// Best combines matchers by taking the maximum score.
type Best []Matcher

// Name implements Matcher.
func (b Best) Name() string {
	names := make([]string, len(b))
	for i, m := range b {
		names[i] = m.Name()
	}
	return "best(" + strings.Join(names, ",") + ")"
}

// Score implements Matcher.
func (b Best) Score(x, y string) float64 {
	best := 0.0
	for _, m := range b {
		if s := m.Score(x, y); s > best {
			best = s
		}
	}
	return best
}

// Correspondence is one generated attribute-level mapping entry, with its
// ground-truth verdict.
type Correspondence struct {
	From, To schema.Attribute
	Score    float64
	// Correct is the ground truth: the two concepts descend from the same
	// reference concept.
	Correct bool
}

// Alignment is the generated mapping between two ontologies.
type Alignment struct {
	Source, Target  *ontology.Ontology
	Correspondences []Correspondence
}

// Pairs converts the alignment to the correspondence map AddMapping expects.
func (a Alignment) Pairs() map[schema.Attribute]schema.Attribute {
	out := make(map[schema.Attribute]schema.Attribute, len(a.Correspondences))
	for _, c := range a.Correspondences {
		out[c.From] = c.To
	}
	return out
}

// Options tunes alignment generation.
type Options struct {
	// Cutoff is the minimum score a correspondence must reach.
	Cutoff float64
	// SecondBestRate, if positive, makes the aligner pick the second-best
	// candidate instead of the best with this probability — the
	// idiosyncratic, direction-dependent mistakes real matchers make on
	// labels, comments and structure this substrate does not model.
	// Requires Rng. DESIGN.md documents the substitution.
	SecondBestRate float64
	// Rng drives the noise; required when SecondBestRate > 0.
	Rng *rand.Rand
}

// Align generates the mapping from src to dst: for every source concept the
// best-scoring target concept at or above the cutoff wins (greedy, one
// target per source, ties broken by name for determinism). Target concepts
// may be reused — exactly the failure mode that produces wrong
// correspondences.
func Align(src, dst *ontology.Ontology, m Matcher, opts Options) (Alignment, error) {
	if src == nil || dst == nil {
		return Alignment{}, fmt.Errorf("align: nil ontology")
	}
	if opts.Cutoff < 0 || opts.Cutoff > 1 {
		return Alignment{}, fmt.Errorf("align: cutoff %v out of [0,1]", opts.Cutoff)
	}
	if opts.SecondBestRate < 0 || opts.SecondBestRate > 1 {
		return Alignment{}, fmt.Errorf("align: second-best rate %v out of [0,1]", opts.SecondBestRate)
	}
	if opts.SecondBestRate > 0 && opts.Rng == nil {
		return Alignment{}, fmt.Errorf("align: second-best noise requires an rng")
	}
	out := Alignment{Source: src, Target: dst}
	for _, sc := range src.Concepts {
		bestScore, secondScore := -1.0, -1.0
		var best, second ontology.Concept
		for _, tc := range dst.Concepts {
			s := m.Score(sc.Name, tc.Name)
			switch {
			case s > bestScore || (s == bestScore && tc.Name < best.Name):
				secondScore, second = bestScore, best
				bestScore, best = s, tc
			case s > secondScore || (s == secondScore && tc.Name < second.Name):
				secondScore, second = s, tc
			}
		}
		chosenScore, chosen := bestScore, best
		if opts.SecondBestRate > 0 && secondScore >= 0 && opts.Rng.Float64() < opts.SecondBestRate {
			chosenScore, chosen = secondScore, second
		}
		if chosenScore < opts.Cutoff {
			continue
		}
		out.Correspondences = append(out.Correspondences, Correspondence{
			From:    schema.Attribute(sc.Name),
			To:      schema.Attribute(chosen.Name),
			Score:   chosenScore,
			Correct: sc.Ref == chosen.Ref,
		})
	}
	sort.Slice(out.Correspondences, func(i, j int) bool {
		return out.Correspondences[i].From < out.Correspondences[j].From
	})
	return out, nil
}

// SuiteAlignments aligns every ordered pair of the given ontologies,
// returning the alignments in a deterministic order — the §5.2 workload
// generator. Alignments with no correspondences are skipped.
func SuiteAlignments(onts []*ontology.Ontology, m Matcher, opts Options) ([]Alignment, error) {
	var out []Alignment
	for i, src := range onts {
		for j, dst := range onts {
			if i == j {
				continue
			}
			a, err := Align(src, dst, m, opts)
			if err != nil {
				return nil, err
			}
			if len(a.Correspondences) == 0 {
				continue
			}
			out = append(out, a)
		}
	}
	return out, nil
}
