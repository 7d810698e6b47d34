package experiments

import (
	"math"
	"testing"

	"repro/internal/paper"
)

func TestFig7Convergence(t *testing.T) {
	tr, res, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Fig 7 did not converge in %d rounds", res.Rounds)
	}
	// The paper: convergence in about ten iterations (tolerance 1e-3).
	if res.Rounds > 16 {
		t.Errorf("converged in %d rounds, paper reports ≈10", res.Rounds)
	}
	if tr.Len() != res.Rounds {
		t.Errorf("trace length %d != rounds %d", tr.Len(), res.Rounds)
	}
	fin := tr.Final()
	// f2 and f3 are negative and both involve m24: it must end lowest.
	for _, m := range []string{"m12", "m23", "m34", "m41"} {
		if fin["m24"] >= fin[m] {
			t.Errorf("m24 (%.3f) not below %s (%.3f)", fin["m24"], m, fin[m])
		}
	}
	if fin["m24"] >= 0.5 {
		t.Errorf("m24 final posterior %.3f, want < 0.5", fin["m24"])
	}
}

func TestFig9ErrorBelowSixPercent(t *testing.T) {
	pts, err := Fig9(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.MeanAbsErr >= 0.06 {
			t.Errorf("extra=%d: mean error %.4f, paper reports < 6%%", p.Extra, p.MeanAbsErr)
		}
	}
	// The error is largest for the shortest cycles.
	if pts[0].MeanAbsErr <= pts[len(pts)-1].MeanAbsErr {
		t.Errorf("error should shrink with cycle length: first %.4f, last %.4f",
			pts[0].MeanAbsErr, pts[len(pts)-1].MeanAbsErr)
	}
}

func TestFig10EvidenceDecays(t *testing.T) {
	deltas := []float64{0.2, 0.1, 0.01}
	pts, err := Fig10(2, 20, deltas)
	if err != nil {
		t.Fatal(err)
	}
	byDelta := make(map[float64][]Fig10Point)
	for _, p := range pts {
		byDelta[p.Delta] = append(byDelta[p.Delta], p)
	}
	for _, d := range deltas {
		series := byDelta[d]
		if len(series) != 19 {
			t.Fatalf("Δ=%v: %d points", d, len(series))
		}
		// Evidence decays toward 0.5: strictly decreasing while it is still
		// informative. (For cycles longer than 1/Δ the posterior dips a
		// hair *below* 0.5 before asymptoting to it — the "exactly one
		// incorrect mapping is impossible under positive feedback" penalty
		// outweighs the vanishing all-correct bonus — so strict
		// monotonicity only holds on the informative prefix.)
		for i := 1; i < len(series); i++ {
			if series[i-1].Posterior > 0.505 && series[i].Posterior > series[i-1].Posterior+1e-12 {
				t.Errorf("Δ=%v: posterior rose from len %d to %d", d, series[i-1].CycleLen, series[i].CycleLen)
			}
		}
		// Beyond ten mappings the cycle is essentially uninformative.
		for _, p := range series {
			if p.CycleLen >= 12 && math.Abs(p.Posterior-0.5) > 0.02 {
				t.Errorf("Δ=%v len %d: posterior %.4f, want ≈0.5", d, p.CycleLen, p.Posterior)
			}
		}
		// Short cycles are strong evidence; at length 2 the closed form is
		// 1/(1+Δ).
		want := 1 / (1 + d)
		if got := series[0].Posterior; math.Abs(got-want) > 1e-9 {
			t.Errorf("Δ=%v: 2-cycle posterior %.6f, want %.6f", d, got, want)
		}
		// Long cycles carry almost no evidence (paper: ≳10 mappings).
		if got := series[len(series)-1].Posterior; got > 0.52 {
			t.Errorf("Δ=%v: 20-cycle posterior %.4f, want ≈0.5", d, got)
		}
	}
	// Larger Δ gives weaker evidence at every length.
	for i := range byDelta[0.2] {
		if byDelta[0.2][i].Posterior > byDelta[0.01][i].Posterior {
			t.Errorf("len %d: Δ=0.2 posterior above Δ=0.01", byDelta[0.2][i].CycleLen)
		}
	}
	if _, err := Fig10(1, 5, deltas); err == nil {
		t.Error("minLen=1: want error")
	}
}

func TestFig11AlwaysConvergesSlower(t *testing.T) {
	pts, err := Fig11([]float64{1.0, 0.5, 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !p.AllConverged {
			t.Errorf("P(send)=%.1f: not all seeds converged", p.PSend)
		}
		if p.MaxDrift > 1e-3 {
			t.Errorf("P(send)=%.1f: fixed point drifted by %.5f", p.PSend, p.MaxDrift)
		}
	}
	if !(pts[0].MeanRounds < pts[1].MeanRounds && pts[1].MeanRounds < pts[2].MeanRounds) {
		t.Errorf("rounds should grow with loss: %v", pts)
	}
}

func TestFig12Shape(t *testing.T) {
	res, err := Fig12([]float64{0.2, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Experiment
	base := float64(ex.Faulty()) / float64(len(ex.Correspondences))
	low := res.Points[0]
	if low.Detected == 0 {
		t.Fatal("nothing detected at θ=0.2")
	}
	if low.Precision < 0.6 || low.Precision < 2.5*base {
		t.Errorf("precision at low θ = %.2f (base rate %.2f); paper reports ≥0.8", low.Precision, base)
	}
	if res.Points[2].Recall <= low.Recall {
		t.Error("recall should grow with θ")
	}
}

func TestIntroNumbers(t *testing.T) {
	res, err := Intro()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Positive != 1 || res.Report.Negative != 2 {
		t.Fatalf("report %+v, want f1+, f2−, f3−", res.Report)
	}
	if math.Abs(res.Posterior["m23"]-0.59) > 0.04 {
		t.Errorf("m23 posterior %.4f, paper quotes 0.59", res.Posterior["m23"])
	}
	if math.Abs(res.Posterior["m24"]-0.30) > 0.02 {
		t.Errorf("m24 posterior %.4f, paper quotes 0.3", res.Posterior["m24"])
	}
	if math.Abs(res.UpdatedPriors["m23"]-0.55) > 0.03 {
		t.Errorf("m23 updated prior %.4f, paper quotes 0.55", res.UpdatedPriors["m23"])
	}
	if math.Abs(res.UpdatedPriors["m24"]-0.40) > 0.03 {
		t.Errorf("m24 updated prior %.4f, paper quotes 0.4", res.UpdatedPriors["m24"])
	}
}

func TestOverheadWithinBound(t *testing.T) {
	pt, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if !pt.WithinBound {
		t.Errorf("per-round messages %d exceed bound %d", pt.PerRound, pt.Bound)
	}
	if pt.PerRound == 0 {
		t.Error("no messages measured")
	}
}

func TestTopologyScaleFreeIsClustered(t *testing.T) {
	stats, err := Topology(150, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats = %v", stats)
	}
	ws, ba, er := stats[0], stats[1], stats[2]
	if ba.Clustering <= er.Clustering {
		t.Errorf("scale-free clustering %.3f not above random %.3f", ba.Clustering, er.Clustering)
	}
	if ba.MaxDegree <= er.MaxDegree {
		t.Errorf("scale-free max degree %d not above random %d", ba.MaxDegree, er.MaxDegree)
	}
	// The small-world lattice reaches the SRS-like clustering regime
	// (§3.2.1 quotes 0.54 for the SRS schema network).
	if ws.Clustering < 0.35 {
		t.Errorf("small-world clustering %.3f, want ≥ 0.35 (SRS: 0.54)", ws.Clustering)
	}
	if ws.CyclesLen5 == 0 {
		t.Error("small-world overlay has no short cycles")
	}
}

func TestFig10MatchesPaperDelta(t *testing.T) {
	// Cross-check Fig 10 at the paper's Δ=0.1 against the closed form for
	// a positive n-cycle with uniform 0.5 priors:
	//   P(correct) = (P0 + Δ·P2plus + … ) — equivalently computed from the
	//   counting message with unit inputs: µ(c) = q + Δ(1−q−kq), µ(i) =
	//   Δ(1−q) with q = 0.5^(n−1), k = n−1.
	pts, err := Fig10(2, 8, []float64{paper.Delta})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		nOthers := float64(p.CycleLen - 1)
		q := math.Pow(0.5, nOthers)
		muC := q + paper.Delta*(1-q-nOthers*q)
		muI := paper.Delta * (1 - q)
		want := muC / (muC + muI)
		if math.Abs(p.Posterior-want) > 1e-9 {
			t.Errorf("len %d: posterior %.6f, closed form %.6f", p.CycleLen, p.Posterior, want)
		}
	}
}
