package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/paper"
)

var update = flag.Bool("update", false, "rewrite REPRODUCTION.json from this run")

// tables caches the rows' tables: each experiment runs once per process.
var tables = map[string]Table{}

func table(t *testing.T, id string) view {
	t.Helper()
	if tb, ok := tables[id]; ok {
		return view{t, tb}
	}
	for _, e := range All {
		if e.ID == id {
			tb, err := e.Run()
			if err != nil {
				t.Fatalf("-fig %s: %v", id, err)
			}
			tables[id] = tb
			return view{t, tb}
		}
	}
	t.Fatalf("no experiment %q in the registry", id)
	return view{}
}

// view reads a table's cells by column name.
type view struct {
	t *testing.T
	Table
}

func (v view) cell(row int, col string) any {
	v.t.Helper()
	c := slices.Index(v.Columns, col)
	if c < 0 {
		v.t.Fatalf("no column %q in %q", col, v.Columns)
	}
	return v.Rows[row][c]
}

func (v view) num(row int, col string) float64 { v.t.Helper(); return num(v.cell(row, col)) }

// row returns the index of the row whose first cell is key.
func (v view) row(key any) int {
	v.t.Helper()
	for i, r := range v.Rows {
		if r[0] == key {
			return i
		}
	}
	v.t.Fatalf("no row %v", key)
	return -1
}

// last is the index of the final row.
func (v view) last() int { return len(v.Rows) - 1 }

// TestReproduction holds the registry, the claim checks and the checked-in
// document to one another: every row of All has a claim check (run here as a
// subtest, so a row cannot be added unchecked) and every check a row, every
// table renders, and the marshalled document equals REPRODUCTION.json byte
// for byte. It runs every row afresh (under -count=N, N times) and stands
// before the named tests, which then read the tables it cached. After an
// intended change of a cell:
// `go test ./internal/experiments -run TestReproduction -update`, and review
// the diff.
func TestReproduction(t *testing.T) {
	clear(tables)
	all := make([]Table, len(All))
	for i, e := range All {
		claim, ok := claims[e.ID]
		if !ok {
			t.Errorf("row %q has no claim check", e.ID)
			continue
		}
		v := table(t, e.ID)
		all[i] = v.Table
		t.Run(e.ID, func(t *testing.T) { v.t = t; claim(t, v) })
		out := Render(e, v.Table)
		for _, want := range append([]string{e.Title, e.Claim, text(v.Rows[v.last()][0])}, v.Columns...) {
			if !strings.Contains(out, want) {
				t.Errorf("-fig %s does not print %q:\n%s", e.ID, want, out)
			}
		}
	}
	got, err := Document(all)
	if err != nil {
		t.Fatal(err)
	}
	var doc []struct{ ID string }
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("the document does not decode: %v", err)
	}
	ids := map[string]bool{}
	for _, d := range doc {
		ids[d.ID] = true
	}
	if len(ids) != len(All) || len(claims) != len(All) {
		t.Errorf("%d rows, %d distinct document IDs, %d claim checks: want one of each per row", len(All), len(ids), len(claims))
	}
	const golden = "../../REPRODUCTION.json"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := bytes.Split(want, []byte("\n"))
	for i, line := range bytes.Split(got, []byte("\n")) {
		if i >= len(wantLines) || !bytes.Equal(line, wantLines[i]) {
			t.Fatalf("the reproduction differs from REPRODUCTION.json at line %d; if intended, regenerate with -update and review the diff.\ngot: %s", i+1, line)
		}
	}
	if !bytes.Equal(got, want) {
		t.Error("REPRODUCTION.json has rows the reproduction does not; regenerate with -update and review the diff")
	}
}

// claims holds, per row ID, the check of the row's Claim on the table
// pdmssim -fig prints. TestReproduction requires one per row of All.
var claims = map[string]func(*testing.T, view){
	"intro": func(t *testing.T, v view) {
		if v.cell(0, "positive evidence") != 1 || v.cell(0, "negative evidence") != 2 {
			t.Fatalf("evidence %v+/%v−, want f1+, f2−, f3−", v.cell(0, "positive evidence"), v.cell(0, "negative evidence"))
		}
		for _, w := range []struct {
			m, col string
			want   float64
			tol    float64
		}{
			{"m23", "posterior", 0.59, 0.04}, {"m24", "posterior", 0.30, 0.02},
			{"m23", "prior after EM update", 0.55, 0.03}, {"m24", "prior after EM update", 0.40, 0.03},
		} {
			if got := v.num(v.row(w.m), w.col); math.Abs(got-w.want) > w.tol {
				t.Errorf("%s %s %.4f, paper quotes %v", w.m, w.col, got, w.want)
			}
		}
	},
	"7": func(t *testing.T, v view) {
		// The paper: convergence in about ten iterations (tolerance 1e-3).
		// The run stops short of its 40-round cap only by converging.
		rounds := len(v.Rows)
		if rounds > 16 {
			t.Errorf("converged in %d rounds, paper reports ≈10", rounds)
		}
		if it := v.cell(v.last(), "iteration"); it != rounds {
			t.Errorf("trace ends at iteration %v after %d rounds", it, rounds)
		}
		// f2 and f3 are negative and both involve m24: it must end lowest.
		bad := v.num(v.last(), "m24")
		for _, m := range []string{"m12", "m23", "m34", "m41"} {
			if bad >= v.num(v.last(), m) {
				t.Errorf("m24 (%.3f) not below %s (%.3f)", bad, m, v.num(v.last(), m))
			}
		}
		if bad >= 0.5 {
			t.Errorf("m24 final posterior %.3f, want < 0.5", bad)
		}
	},
	"9": func(t *testing.T, v view) {
		if len(v.Rows) != 7 {
			t.Fatalf("got %d points", len(v.Rows))
		}
		for i := range v.Rows {
			if e := v.num(i, "mean error (%)"); e >= 6 {
				t.Errorf("extra=%v: mean error %.2f%%, paper reports < 6%%", v.cell(i, "extra peers"), e)
			}
		}
		// The error is largest for the shortest cycles.
		if first, last := v.num(0, "mean error (%)"), v.num(v.last(), "mean error (%)"); first <= last {
			t.Errorf("error should shrink with cycle length: first %.2f%%, last %.2f%%", first, last)
		}
	},
	"10": func(t *testing.T, v view) {
		if len(v.Rows) != 19 {
			t.Fatalf("%d cycle lengths", len(v.Rows))
		}
		for col, d := range map[string]float64{"Δ=0.20": 0.2, "Δ=0.10": 0.1, "Δ=0.01": 0.01} {
			// Evidence decays toward 0.5: strictly decreasing while it is still
			// informative. (For cycles longer than 1/Δ the posterior dips a
			// hair *below* 0.5 before asymptoting to it — the "exactly one
			// incorrect mapping is impossible under positive feedback" penalty
			// outweighs the vanishing all-correct bonus — so strict
			// monotonicity only holds on the informative prefix.)
			for i := 1; i < len(v.Rows); i++ {
				if prev := v.num(i-1, col); prev > 0.505 && v.num(i, col) > prev+1e-12 {
					t.Errorf("%s: posterior rose at length %v", col, v.cell(i, "cycle length"))
				}
			}
			// Beyond ten mappings the cycle is essentially uninformative.
			for i := v.row(12); i < len(v.Rows); i++ {
				if p := v.num(i, col); math.Abs(p-0.5) > 0.02 {
					t.Errorf("%s len %v: posterior %.4f, want ≈0.5", col, v.cell(i, "cycle length"), p)
				}
			}
			// Short cycles are strong evidence; at length 2 the closed form is
			// 1/(1+Δ).
			if got, want := v.num(v.row(2), col), 1/(1+d); math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: 2-cycle posterior %.6f, want %.6f", col, got, want)
			}
		}
		// Larger Δ gives weaker evidence at every length.
		for i := range v.Rows {
			if v.num(i, "Δ=0.20") > v.num(i, "Δ=0.01") {
				t.Errorf("len %v: Δ=0.2 posterior above Δ=0.01", v.cell(i, "cycle length"))
			}
		}
	},
	"11": func(t *testing.T, v view) {
		for i := range v.Rows {
			if v.cell(i, "converged") != true {
				t.Errorf("P(send)=%v: not all seeds converged", v.Rows[i][0])
			}
			if d := v.num(i, "fixed-point drift"); d > 1e-3 {
				t.Errorf("P(send)=%v: fixed point drifted by %.5f", v.Rows[i][0], d)
			}
			if i > 0 && v.num(i, "rounds") <= v.num(i-1, "rounds") {
				t.Errorf("P(send)=%v: rounds should grow with loss: %v", v.Rows[i][0], v.Rows)
			}
		}
	},
	"12": func(t *testing.T, v view) {
		base := v.num(0, "erroneous") / v.num(0, "correspondences")
		low, high := v.row(0.2), v.row(0.9)
		if v.cell(low, "detected") == 0 {
			t.Fatal("nothing detected at θ=0.2")
		}
		if p := v.num(low, "precision"); p < 0.6 || p < 2.5*base {
			t.Errorf("precision at low θ = %.2f (base rate %.2f); paper reports ≥0.8", p, base)
		}
		if v.num(high, "recall") <= v.num(low, "recall") {
			t.Error("recall should grow with θ")
		}
	},
	"overhead": func(t *testing.T, v view) {
		// Run itself fails unless discovery found exactly the six structures
		// whose lengths the bound sums.
		if v.cell(0, "within bound") != true {
			t.Errorf("per-round messages %v exceed bound %v", v.cell(0, "remote msgs/round"), v.cell(0, "bound Σ l(l−1)"))
		}
		if v.cell(0, "remote msgs/round") == 0 {
			t.Error("no messages measured")
		}
	},
	"topology": func(t *testing.T, v view) {
		ws, ba, er := v.row("watts-strogatz"), v.row("barabasi-albert"), v.row("erdos-renyi")
		if v.num(ba, "clustering") <= v.num(er, "clustering") {
			t.Errorf("scale-free clustering %.3f not above random %.3f", v.num(ba, "clustering"), v.num(er, "clustering"))
		}
		if v.num(ba, "max degree") <= v.num(er, "max degree") {
			t.Errorf("scale-free max degree %v not above random %v", v.cell(ba, "max degree"), v.cell(er, "max degree"))
		}
		// The small-world lattice reaches the SRS-like clustering regime
		// (§3.2.1 quotes 0.54 for the SRS schema network).
		if c := v.num(ws, "clustering"); c < 0.35 {
			t.Errorf("small-world clustering %.3f, want ≥ 0.35 (SRS: 0.54)", c)
		}
		if v.cell(ws, "cycles ≤5") == 0 {
			t.Error("small-world overlay has no short cycles")
		}
	},
	"scale": func(t *testing.T, v view) {
		if len(v.Rows) != 3 {
			t.Fatalf("got %d sizes", len(v.Rows))
		}
		for i := range v.Rows {
			size := v.num(i, "peers")
			if v.cell(i, "faulty") == 0 {
				t.Fatalf("no faulty mappings injected at size %v", size)
			}
			if v.cell(i, "covered") == 0 || v.cell(i, "evidence") == 0 {
				t.Errorf("size %v: no coverage (%v)", size, v.Rows[i])
			}
			// Detection must beat the corruption base rate — by 2× up to 60
			// peers; the 120-peer overlay only clears the rate itself.
			base, want := v.num(i, "faulty")/v.num(i, "mappings"), 2.0
			if size > 60 {
				want = 1
			}
			if p := v.num(i, "precision"); p < want*base {
				t.Errorf("size %v: precision %.2f not above %v× base rate %.2f", size, p, want, base)
			}
			if r := v.num(i, "recall"); r < 0.5 {
				t.Errorf("size %v: recall %.2f of covered faulty mappings, want ≥ 0.5", size, r)
			}
			// Larger networks carry more evidence.
			if i > 0 && v.num(i, "evidence") <= v.num(i-1, "evidence") {
				t.Errorf("size %v: evidence did not grow with size: %v", size, v.Rows)
			}
		}
	},
	"granularity": func(t *testing.T, v view) {
		fine, coarse := v.row("fine"), v.row("coarse")
		// Coarse granularity has strictly fewer variables (one per mapping).
		if v.num(coarse, "variables") >= v.num(fine, "variables") {
			t.Errorf("coarse variables %v not below fine %v", v.cell(coarse, "variables"), v.cell(fine, "variables"))
		}
		// With whole-mapping corruption the multi-attribute coarse comparison
		// carries the same information as the per-attribute instances: the
		// decisions must match at a quarter of the state.
		for _, col := range []string{"recall", "precision"} {
			if v.num(coarse, col) < v.num(fine, col)-1e-9 {
				t.Errorf("coarse %s %.2f below fine %.2f on whole-mapping corruption", col, v.num(coarse, col), v.num(fine, col))
			}
		}
	},
	"paths": func(t *testing.T, v view) {
		with, without := v.row("cycles+parallel"), v.row("cycles only")
		if v.num(with, "observations") <= v.num(without, "observations") {
			t.Errorf("parallel paths added no evidence: %v", v.Rows)
		}
		// The extra negative evidence (f3⇒) pushes the faulty mapping lower
		// and widens the separation.
		if v.num(with, "faulty posterior") >= v.num(without, "faulty posterior") {
			t.Errorf("faulty posterior with pairs not below cycles-only: %v", v.Rows)
		}
		if v.num(with, "separation") <= v.num(without, "separation") {
			t.Errorf("separation with pairs not above cycles-only: %v", v.Rows)
		}
	},
	"schedules": func(t *testing.T, v view) {
		periodic, lazy, async := v.row("periodic"), v.row("lazy"), v.row("async")
		if v.cell(lazy, "dedicated msgs") != 0 {
			t.Errorf("lazy schedule sent %v dedicated messages, want 0", v.cell(lazy, "dedicated msgs"))
		}
		if v.cell(lazy, "piggybacked") == 0 {
			t.Error("lazy schedule carried nothing")
		}
		if v.cell(periodic, "dedicated msgs") == 0 || v.cell(async, "dedicated msgs") == 0 {
			t.Error("periodic/async sent no messages")
		}
		for i, r := range v.Rows {
			if v.cell(i, "converged") != true {
				t.Errorf("%v did not converge", r[0])
			}
			if p := v.num(i, "m24 posterior"); p >= 0.5 {
				t.Errorf("%v failed to detect the faulty mapping: %.3f", r[0], p)
			}
		}
		// Async runs under periodic's options and lands on its fixed point,
		// resending only what moved; lazy runs periodic's rounds, one per
		// query, and lands on it too.
		want := v.num(periodic, "m24 posterior")
		if d := math.Abs(v.num(async, "m24 posterior") - want); d > 1e-8 {
			t.Errorf("async m24 %.10f is %.1e from periodic's %.10f", v.num(async, "m24 posterior"), d, want)
		}
		if v.num(async, "dedicated msgs") >= v.num(periodic, "dedicated msgs") {
			t.Errorf("async sent %v dedicated messages, periodic %v: the frontier must send fewer", v.cell(async, "dedicated msgs"), v.cell(periodic, "dedicated msgs"))
		}
		if d := math.Abs(v.num(lazy, "m24 posterior") - want); d > 1e-8 {
			t.Errorf("lazy m24 %.10f is %.1e from periodic's %.10f", v.num(lazy, "m24 posterior"), d, want)
		}
	},
	"priors": func(t *testing.T, v view) {
		if len(v.Rows) != 6 {
			t.Fatalf("epochs = %d", len(v.Rows))
		}
		// Priors start uninformed and drift monotonically apart.
		if v.cell(0, "prior m23") != 0.5 || v.cell(0, "prior m24") != 0.5 {
			t.Errorf("first epoch priors = %v, want 0.5/0.5", v.Rows[0])
		}
		for i := 1; i < len(v.Rows); i++ {
			if v.num(i, "prior m23") < v.num(i-1, "prior m23")-1e-12 {
				t.Errorf("epoch %d: sound prior fell: %v", i+1, v.Rows)
			}
			if v.num(i, "prior m24") > v.num(i-1, "prior m24")+1e-12 {
				t.Errorf("epoch %d: faulty prior rose: %v", i+1, v.Rows)
			}
		}
		if good, bad := v.num(v.last(), "prior m23"), v.num(v.last(), "prior m24"); !(good > 0.52 && bad < 0.42) {
			t.Errorf("priors entering epoch 6: %.3f / %.3f, want clear separation", good, bad)
		}
	},
	"churn": func(t *testing.T, v view) {
		stale, fresh := v.row("stale (before rediscovery)"), v.row("fresh (after rediscovery)")
		if p := v.num(stale, "posterior"); p >= 0.5 {
			t.Errorf("stale posterior %.3f, want the old faulty belief < 0.5", p)
		}
		if v.cell(fresh, "positive evidence") == 0 {
			t.Error("no positive evidence after the fix")
		}
		if p := v.num(fresh, "posterior"); p <= 0.5 {
			t.Errorf("refreshed posterior %.3f, want > 0.5 after the mapping was fixed", p)
		}
	},
	// The scenario-driven churn experiment keeps the corrupted mappings
	// ranked below the clean ones on average and never violates an invariant
	// (the run includes the scratch differential).
	"timeline": func(t *testing.T, v view) {
		if len(v.Rows) != 6 {
			t.Fatalf("got %d epochs, want 6", len(v.Rows))
		}
		for i := range v.Rows {
			if v.cell(i, "violations") != 0 {
				t.Errorf("epoch %d: %v invariant violations", i+1, v.cell(i, "violations"))
			}
			if v.num(i, "corrupt post") >= v.num(i, "clean post") {
				t.Errorf("epoch %d: corrupted mean %.3f not below clean mean %.3f", i+1, v.num(i, "corrupt post"), v.num(i, "clean post"))
			}
		}
	},
	"feedback": func(t *testing.T, v view) {
		for i := range v.Rows {
			if v.cell(i, "observations") == 0 {
				t.Errorf("epoch %d: nothing fed back", i+1)
			}
			if v.num(i, "err after") >= v.num(i, "err before") {
				t.Errorf("epoch %d: re-detection did not lower the error: %v", i+1, v.Rows[i])
			}
		}
		if first, last := v.num(0, "err after"), v.num(v.last(), "err after"); last >= first {
			t.Errorf("error did not fall with served traffic: %.4f then %.4f", first, last)
		}
	},
}

func check(t *testing.T, id string) { t.Helper(); claims[id](t, table(t, id)) }

func TestIntroNumbers(t *testing.T)                    { check(t, "intro") }
func TestFig7Convergence(t *testing.T)                 { check(t, "7") }
func TestFig9ErrorBelowSixPercent(t *testing.T)        { check(t, "9") }
func TestFig10EvidenceDecays(t *testing.T)             { check(t, "10") }
func TestFig11AlwaysConvergesSlower(t *testing.T)      { check(t, "11") }
func TestFig12Shape(t *testing.T)                      { check(t, "12") }
func TestOverheadWithinBound(t *testing.T)             { check(t, "overhead") }
func TestTopologyScaleFreeIsClustered(t *testing.T)    { check(t, "topology") }
func TestScaleDetectsOnGeneratedNetworks(t *testing.T) { check(t, "scale") }
func TestGranularityAblation(t *testing.T)             { check(t, "granularity") }
func TestParallelPathAblation(t *testing.T)            { check(t, "paths") }
func TestCompareSchedules(t *testing.T)                { check(t, "schedules") }
func TestPriorLearningDriftsApart(t *testing.T)        { check(t, "priors") }
func TestChurnRefreshRestoresMapping(t *testing.T)     { check(t, "churn") }
func TestChurnTimeline(t *testing.T)                   { check(t, "timeline") }

// TestFig10MatchesPaperDelta cross-checks Fig 10's Δ=0.1 column against the
// closed form for a positive n-cycle with uniform 0.5 priors, computed from
// the counting message with unit inputs: µ(c) = q + Δ(1−q−kq), µ(i) = Δ(1−q)
// with q = 0.5^(n−1), k = n−1.
func TestFig10MatchesPaperDelta(t *testing.T) {
	v := table(t, "10")
	for i := range v.Rows {
		k := v.num(i, "cycle length") - 1
		q := math.Pow(0.5, k)
		muC, muI := q+paper.Delta*(1-q-k*q), paper.Delta*(1-q)
		if got, want := v.num(i, "Δ=0.10"), muC/(muC+muI); math.Abs(got-want) > 1e-9 {
			t.Errorf("len %v: posterior %.6f, closed form %.6f", k+1, got, want)
		}
	}
}
