package core

// In-package tests for the online feedback-evidence plane: ingestion
// installs and strengthens counting factors through the same replica
// machinery as structural discovery, churn retracts them (index included),
// and the bounded incremental re-detection lands on the posteriors a full
// from-scratch run computes.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/schema"
)

// feedbackRing builds a directed identity-mapped ring p0→p1→…→p{n-1}→p0
// with mappings m0..m{n-1}; the mappings at the given indices are corrupted
// (a and b swapped).
func feedbackRing(t testing.TB, n int, corrupt ...int) *Network {
	t.Helper()
	net := NewNetwork(true)
	for i := 0; i < n; i++ {
		net.MustAddPeer(graph.PeerID(fmt.Sprintf("p%d", i)), schema.MustNew(fmt.Sprintf("S%d", i), "a", "b", "c"))
	}
	bad := make(map[int]bool)
	for _, i := range corrupt {
		bad[i] = true
	}
	for i := 0; i < n; i++ {
		pairs := map[schema.Attribute]schema.Attribute{"a": "a", "b": "b", "c": "c"}
		if bad[i] {
			pairs = map[schema.Attribute]schema.Attribute{"a": "b", "b": "a", "c": "c"}
		}
		net.MustAddMapping(
			graph.EdgeID(fmt.Sprintf("m%d", i)),
			graph.PeerID(fmt.Sprintf("p%d", i)),
			graph.PeerID(fmt.Sprintf("p%d", (i+1)%n)),
			pairs,
		)
	}
	return net
}

var fbOpts = FeedbackOptions{Delta: 0.1, Noise: 0.1}

func TestIngestFeedbackInstallsAndBumps(t *testing.T) {
	net := feedbackRing(t, 4)
	rep, err := net.IngestFeedback(fbOpts,
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0", "m1"}, Polarity: feedback.Negative},
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0", "m1"}, Polarity: feedback.Negative},
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m2"}, Polarity: feedback.Positive},
		QueryFeedback{Attr: "a", Chain: nil, Polarity: feedback.Positive}, // local answer: ignored
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observations != 4 || rep.Positive != 2 || rep.Negative != 2 {
		t.Errorf("report %+v: want 4 observations, 2 positive, 2 negative", rep)
	}
	if rep.NewFactors != 2 || rep.Bumped != 0 {
		t.Errorf("report %+v: want 2 new factors, 0 bumped", rep)
	}
	if factors, weight := net.FeedbackFactors(); factors != 2 || weight != 3 {
		t.Errorf("factors=%d weight=%d, want 2 factors of total weight 3", factors, weight)
	}
	// Every (mapping, attr) on an ingested chain is dirty: m0/a, m1/a, m2/a.
	if got := net.DirtyFeedbackVars(); got != 3 {
		t.Errorf("DirtyFeedbackVars = %d, want 3", got)
	}
	// The factors are visible through the same introspection as structural
	// evidence.
	if pos, neg := net.EvidenceCounts("m0", "a"); pos != 0 || neg != 1 {
		t.Errorf("EvidenceCounts(m0,a) = %d,%d, want 0,1", pos, neg)
	}
	if pos, neg := net.EvidenceCounts("m2", "a"); pos != 1 || neg != 0 {
		t.Errorf("EvidenceCounts(m2,a) = %d,%d, want 1,0", pos, neg)
	}

	// A second batch over the same chain bumps the existing factor.
	rep, err = net.IngestFeedback(fbOpts,
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0", "m1"}, Polarity: feedback.Negative},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewFactors != 0 || rep.Bumped != 1 {
		t.Errorf("rebatch report %+v: want 0 new, 1 bumped", rep)
	}
	if factors, weight := net.FeedbackFactors(); factors != 2 || weight != 4 {
		t.Errorf("factors=%d weight=%d after bump, want 2/4", factors, weight)
	}

	// Inference over the feedback factors alone separates the posteriors:
	// the chain under repeated contradiction sinks, the confirmed mapping
	// rises.
	det, err := net.RunDetection(DetectOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if det.TouchedVars != 3 {
		t.Errorf("TouchedVars = %d, want 3", det.TouchedVars)
	}
	bad := det.Posterior("m0", "a", -1)
	good := det.Posterior("m2", "a", -1)
	if !(bad < 0.5 && good > 0.5) {
		t.Errorf("posteriors m0=%v m2=%v: want contradicted < 0.5 < confirmed", bad, good)
	}
	if net.DirtyFeedbackVars() != 0 {
		t.Error("incremental run did not consume the dirty set")
	}
}

func TestIngestFeedbackNeutralAndStale(t *testing.T) {
	net := feedbackRing(t, 3)
	rep, err := net.IngestFeedback(fbOpts,
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0"}, Polarity: feedback.Neutral},
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"ghost"}, Polarity: feedback.Positive},
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0", "ghost"}, Polarity: feedback.Negative},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Neutral != 1 || rep.Stale != 2 || rep.NewFactors != 0 {
		t.Errorf("report %+v: want 1 neutral, 2 stale, 0 factors", rep)
	}
	if factors, _ := net.FeedbackFactors(); factors != 0 {
		t.Errorf("%d factors installed from neutral/stale observations", factors)
	}
	if net.DirtyFeedbackVars() != 0 {
		t.Error("neutral/stale observations dirtied variables")
	}
	if _, err := net.IngestFeedback(FeedbackOptions{Noise: 0.7}); err == nil {
		t.Error("noise 0.7: want error")
	}
	if _, err := net.IngestFeedback(FeedbackOptions{Delta: 2}); err == nil {
		t.Error("delta 2: want error")
	}
	if _, err := net.IngestFeedback(FeedbackOptions{Delta: math.NaN()}); err == nil {
		t.Error("delta NaN: want error")
	}
	if _, err := net.IngestFeedback(FeedbackOptions{Noise: math.NaN()}); err == nil {
		t.Error("noise NaN: want error")
	}
}

// TestFeedbackRetractedOnRemoveMapping is the churn regression: removing a
// mapping in the middle of a feedback epoch — observations ingested, the
// bounded re-detect not yet run — must retract the freshly installed
// feedback factors, their variable references, the aggregation index entry
// and the dirty marks, exactly as structural evidence is retracted.
func TestFeedbackRetractedOnRemoveMapping(t *testing.T) {
	net := feedbackRing(t, 4)
	if _, err := net.DiscoverStructural([]schema.Attribute{"a"}, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	obs := []QueryFeedback{
		{Attr: "a", Chain: []graph.EdgeID{"m0", "m1"}, Polarity: feedback.Negative},
		{Attr: "a", Chain: []graph.EdgeID{"m2", "m3"}, Polarity: feedback.Positive},
	}
	if _, err := net.IngestFeedback(fbOpts, obs...); err != nil {
		t.Fatal(err)
	}
	if factors, _ := net.FeedbackFactors(); factors != 2 {
		t.Fatalf("%d feedback factors installed, want 2", factors)
	}

	// Mid-epoch churn: m1 disappears before the incremental re-detect.
	net.RemoveMapping("m1")

	for _, line := range net.InferenceDigest() {
		if containsEdge(line, "m1") {
			t.Errorf("inference state still references removed m1: %q", line)
		}
	}
	if factors, _ := net.FeedbackFactors(); factors != 1 {
		t.Errorf("%d feedback factors survive, want 1 (the m2-m3 chain)", factors)
	}
	if pos, neg := net.EvidenceCounts("m0", "a"); neg != 0 {
		t.Errorf("m0 still carries %d negative (pos %d): its only negative factor crossed m1", neg, pos)
	}

	// The in-flight epoch completes cleanly over the surviving scope.
	det, err := net.RunDetection(DetectOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if p := det.Posterior("m1", "a", -1); p >= 0 {
		t.Errorf("removed mapping still posts a posterior %v", p)
	}

	// Re-adding the mapping and re-observing the chain must install a
	// fresh factor — a stale index entry would bump a retracted ghost.
	net.MustAddMapping("m1", "p1", "p2", map[schema.Attribute]schema.Attribute{"a": "a", "b": "b", "c": "c"})
	rep, err := net.IngestFeedback(fbOpts, obs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewFactors != 1 || rep.Bumped != 0 {
		t.Errorf("re-ingest after revival: %+v, want a fresh factor, no bump", rep)
	}
	if factors, weight := net.FeedbackFactors(); factors != 2 || weight != 2 {
		t.Errorf("factors=%d weight=%d after revival, want 2/2 (count restarted)", factors, weight)
	}
}

// containsEdge reports whether a digest line mentions the edge as a
// standalone token (digest lines delimit edge IDs with punctuation, so "m1"
// must not match inside "m10").
func containsEdge(line, edge string) bool {
	isWord := func(b byte) bool {
		return b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
	}
	for i := 0; i+len(edge) <= len(line); i++ {
		if line[i:i+len(edge)] != edge {
			continue
		}
		j := i + len(edge)
		if (i == 0 || !isWord(line[i-1])) && (j == len(line) || !isWord(line[j])) {
			return true
		}
	}
	return false
}

func TestIncrementalDetectNoDirtyIsNoop(t *testing.T) {
	net := feedbackRing(t, 4, 1)
	if _, err := net.DiscoverStructural([]schema.Attribute{"a"}, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	full, err := net.RunDetection(DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	incr, err := net.RunDetection(DetectOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if incr.Rounds != 0 || !incr.Converged || incr.TouchedVars != 0 {
		t.Errorf("no-dirty incremental ran: %+v", incr)
	}
	for m, attrs := range full.Posteriors {
		for a, p := range attrs {
			if q := incr.Posterior(m, a, -1); math.Abs(p-q) > 1e-12 {
				t.Errorf("no-op incremental moved %s/%s: %v -> %v", m, a, p, q)
			}
		}
	}
}

// TestIncrementalMatchesScratchDetect: after structural discovery, a full
// detection, and a feedback batch, the bounded incremental re-detect must
// land on the same posteriors as building an identical network from scratch,
// ingesting the same batch, and running a full detection.
func TestIncrementalMatchesScratchDetect(t *testing.T) {
	// Feedback touches attribute a only: the attr-b component must stay
	// outside the incremental scope (the strict-subset assertion below).
	obs := []QueryFeedback{
		{Attr: "a", Chain: []graph.EdgeID{"m0", "m1"}, Polarity: feedback.Negative},
		{Attr: "a", Chain: []graph.EdgeID{"m2"}, Polarity: feedback.Positive},
		{Attr: "a", Chain: []graph.EdgeID{"m1", "m2", "m3"}, Polarity: feedback.Positive},
	}
	attrs := []schema.Attribute{"a", "b"}

	live := feedbackRing(t, 4, 1)
	if _, err := live.DiscoverStructural(attrs, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := live.RunDetection(DetectOptions{Tolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if _, err := live.IngestFeedback(fbOpts, obs...); err != nil {
		t.Fatal(err)
	}
	incr, err := live.RunDetection(DetectOptions{Incremental: true, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}

	scratch := feedbackRing(t, 4, 1)
	if _, err := scratch.DiscoverStructural(attrs, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := scratch.IngestFeedback(fbOpts, obs...); err != nil {
		t.Fatal(err)
	}
	full, err := scratch.RunDetection(DetectOptions{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}

	if incr.TouchedVars == 0 || incr.TouchedVars >= full.TouchedVars {
		t.Errorf("incremental touched %d of %d vars: want a strict, non-empty subset",
			incr.TouchedVars, full.TouchedVars)
	}
	for m, mm := range full.Posteriors {
		for a, want := range mm {
			got := incr.Posterior(m, a, -1)
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("%s/%s: incremental %v vs scratch %v", m, a, got, want)
			}
		}
	}
	for m, mm := range incr.Posteriors {
		for a := range mm {
			if full.Posterior(m, a, -1) < 0 {
				t.Errorf("incremental reports %s/%s, scratch does not", m, a)
			}
		}
	}
}

// TestProportionalCapPreservesPolarity is the property behind
// maxFeedbackWeight's proportional scaling, probed under the hostile count
// distributions an adversary can manufacture: for every confirm/contradict
// split — including the 90%/10% regression shape at 10×, 100× and 1000×
// the cap — the capped factor must hold the same dominant polarity and the
// same value ordering as the uncapped counts would imply. Capping each side
// independently (clamping instead of scaling) fails this: a hot clean chain
// with 9:1 confirms would degenerate toward 50/50, where the combined
// conditional favours "two or more wrong" and flips every posterior on the
// chain.
func TestProportionalCapPreservesPolarity(t *testing.T) {
	const delta, eps = 0.1, 0.02
	const arity = 3
	posBase, _ := feedback.Evidence{Polarity: feedback.Positive}.NoisyCountingVals(delta, eps, arity)
	negBase, _ := feedback.Evidence{Polarity: feedback.Negative}.NoisyCountingVals(delta, eps, arity)
	splits := [][2]int{
		{9, 1}, {1, 9}, {90, 10}, {10, 90}, {900, 100}, {100, 900},
		{63, 1}, {1, 63}, {64, 64}, {65, 63}, {63, 65},
		{1000, 999}, {999, 1000}, {5000, 1}, {1, 5000}, {33, 31}, {31, 33},
	}
	for _, s := range splits {
		pos, neg := s[0], s[1]
		ff := &fbFactor{
			ref:     &evidenceRef{Vals: make([]float64, arity+1)},
			posBase: posBase,
			negBase: negBase,
			pos:     pos,
			neg:     neg,
			tallies: map[graph.PeerID]*reporterTally{"p0": {pos: pos, neg: neg}},
		}
		ff.refresh(nil, false)
		wantPol := feedback.Positive
		if pos < neg {
			wantPol = feedback.Negative
		}
		if ff.ref.Polarity != wantPol {
			t.Errorf("split %d:%d: cap inverted polarity to %v", pos, neg, ff.ref.Polarity)
		}
		// The ordering property: log Vals[k] = pos·log posBase[k] +
		// neg·log negBase[k] is linear in the counts, so scaling both by the
		// same positive factor preserves the full value ordering exactly. The
		// uncapped reference is computed in log space — at 5000 observations
		// the direct product underflows to zero, which is the very overflow
		// the cap defends against — and every strict uncapped ordering must
		// survive in the capped output. Per-side clamping would violate this:
		// it moves the counts off the pos:neg ray and reorders the values.
		logRef := make([]float64, arity+1)
		for k := range logRef {
			logRef[k] = float64(pos)*math.Log(posBase[k]) + float64(neg)*math.Log(negBase[k])
		}
		for j := 0; j <= arity; j++ {
			for k := 0; k <= arity; k++ {
				tol := 1e-9 * (math.Abs(logRef[j]) + math.Abs(logRef[k]) + 1)
				if logRef[j] > logRef[k]+tol && ff.ref.Vals[j] <= ff.ref.Vals[k] {
					t.Errorf("split %d:%d: cap reordered values: uncapped log ratio %v has Vals[%d]=%v <= Vals[%d]=%v",
						pos, neg, logRef[j]-logRef[k], j, ff.ref.Vals[j], k, ff.ref.Vals[k])
				}
			}
		}
		for k, v := range ff.ref.Vals {
			if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("split %d:%d: Vals[%d]=%v not strictly positive and finite", pos, neg, k, v)
			}
		}
	}
}

// TestRemovePeerRetractsReporterState is the adversarial churn regression:
// removing a peer that had been reporting poisoned feedback — and had been
// convicted and discounted for it — must eagerly retract its entire
// reporter-side footprint. Its tallies leave every factor it touched,
// factors it was the sole reporter of disappear outright (replicas and
// variable references included), its trust entry is dropped, and the
// surviving factors refresh to the values a network that never heard from
// the reporter computes — checked by digest equality against exactly that
// twin network.
func TestRemovePeerRetractsReporterState(t *testing.T) {
	mk := func(withAdv bool) *Network {
		net := feedbackRing(t, 6)
		obs := []QueryFeedback{
			{Attr: "a", Chain: []graph.EdgeID{"m0"}, Polarity: feedback.Positive, Reporter: "p2"},
			{Attr: "a", Chain: []graph.EdgeID{"m0"}, Polarity: feedback.Positive, Reporter: "p3"},
		}
		if withAdv {
			// p5 floods clean m0 with negatives past the conviction
			// threshold, and is the sole reporter vouching for m2.
			for i := 0; i < feedback.TrustMinVolume; i++ {
				obs = append(obs, QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0"}, Polarity: feedback.Negative, Reporter: "p5"})
			}
			for i := 0; i < 3; i++ {
				obs = append(obs, QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m2"}, Polarity: feedback.Positive, Reporter: "p5"})
			}
		}
		if _, err := net.IngestFeedback(fbOpts, obs...); err != nil {
			t.Fatal(err)
		}
		return net
	}

	net := mk(true)
	if tr := net.ReporterTrust("p5"); tr >= 1 {
		t.Fatalf("precondition: poisoning reporter p5 holds full trust %v", tr)
	}
	if disc := net.DiscountedReporters(); len(disc) != 1 || disc[0] != "p5" {
		t.Fatalf("precondition: discounted reporters = %v, want [p5]", disc)
	}
	if factors, weight := net.ReporterContribution("p5"); factors != 2 || weight != feedback.TrustMinVolume+3 {
		t.Fatalf("precondition: p5 contribution = %d factors / %d weight", factors, weight)
	}

	net.RemovePeer("p5")

	if factors, weight := net.ReporterContribution("p5"); factors != 0 || weight != 0 {
		t.Errorf("p5 still contributes %d factors / %d weight after RemovePeer", factors, weight)
	}
	if tr := net.ReporterTrust("p5"); tr != 1 {
		t.Errorf("p5 trust state survives RemovePeer: %v", tr)
	}
	if disc := net.DiscountedReporters(); len(disc) != 0 {
		t.Errorf("discounted reporters after RemovePeer: %v, want none", disc)
	}
	// The m2 factor had no other reporter: it must be gone. The m0 factor
	// survives on the honest tallies alone and flips back to its honest
	// confirm-dominant polarity.
	if factors, weight := net.FeedbackFactors(); factors != 1 || weight != 2 {
		t.Errorf("factors=%d weight=%d after RemovePeer, want 1/2 (honest m0 observations only)", factors, weight)
	}
	if pos, neg := net.EvidenceCounts("m0", "a"); pos != 1 || neg != 0 {
		t.Errorf("EvidenceCounts(m0,a) = %d,%d after RemovePeer, want 1,0", pos, neg)
	}

	// The strong form: the surviving inference state is indistinguishable
	// from a network that never heard from p5 at all.
	twin := mk(false)
	twin.RemovePeer("p5")
	got, want := net.InferenceDigest(), twin.InferenceDigest()
	if len(got) != len(want) {
		t.Fatalf("digest length %d vs twin %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest line %d diverges from the never-saw-p5 twin:\n  got  %q\n  want %q", i, got[i], want[i])
		}
	}
	netDet, err := net.RunDetection(DetectOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	twinDet, err := twin.RunDetection(DetectOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := netDet.Posterior("m0", "a", -1), twinDet.Posterior("m0", "a", -1); g != w {
		t.Errorf("posterior m0/a %v diverges from twin %v", g, w)
	}
}
