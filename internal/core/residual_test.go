package core

// In-package tests for the residual-scheduled, component-parallel
// incremental engine: the dirty-closure decomposition into connected
// components, its edge cases (factor-less dirty marks, mid-epoch
// retraction), and the residual-vs-lockstep work/equivalence contract.

import (
	"math"
	"testing"

	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/schema"
)

// TestIncrementalComponentsOverlap: feedback chains that share a mapping
// must coalesce into one component (closure under message flow), disjoint
// chains must not, and both the component list and each member list come
// out in canonical order.
func TestIncrementalComponentsOverlap(t *testing.T) {
	net := feedbackRing(t, 8)
	_, err := net.IngestFeedback(fbOpts,
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0", "m1"}, Polarity: feedback.Negative},
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m1", "m2"}, Polarity: feedback.Positive},
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m5"}, Polarity: feedback.Positive},
	)
	if err != nil {
		t.Fatal(err)
	}
	scope, comps := net.incrementalComponents(net.dirtyVars())
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2 (m0-m1-m2 overlapping, m5 alone)", len(comps))
	}
	if comps[0].id.Mapping != "m0" || comps[1].id.Mapping != "m5" {
		t.Fatalf("component ids %v, %v: want canonical order m0, m5", comps[0].id, comps[1].id)
	}
	wantVars := [][]string{{"m0", "m1", "m2"}, {"m5"}}
	for i, c := range comps {
		if len(c.vars) != len(wantVars[i]) {
			t.Fatalf("component %d has vars %v, want mappings %v", i, c.vars, wantVars[i])
		}
		for j, rv := range c.vars {
			key := rv.vs.key
			if string(key.Mapping) != wantVars[i][j] || key.Attr != "a" {
				t.Errorf("component %d var %d = %v, want %s/a", i, j, key, wantVars[i][j])
			}
			if !scope.vars[key] {
				t.Errorf("component %d var %v missing from the shared scope", i, key)
			}
		}
		// Closure: every factor of every member is in the shared scope, and
		// so is every mapping of that factor.
		for _, rv := range c.vars {
			for _, f := range rv.vs.factors {
				ev := f.replica.ev
				if !scope.evs[ev.ID] {
					t.Errorf("component %d factor %s missing from the shared scope", i, ev.ID)
				}
				for _, m := range ev.Mappings {
					if !scope.vars[varKey{Mapping: m, Attr: ev.Attr}] {
						t.Errorf("component %d factor %s reaches %s/%s outside the scope", i, ev.ID, m, ev.Attr)
					}
				}
			}
		}
	}
	if len(scope.vars) != 4 {
		t.Errorf("shared scope has %d vars, want 4", len(scope.vars))
	}
}

// TestIncrementalComponentsDeadMarks: dirty marks that no longer resolve to
// a live variable — a retracted mapping, an attribute that never grew a
// factor — must dissolve without a component (and without a panic), and an
// incremental run over only such marks is a converged no-op.
func TestIncrementalComponentsDeadMarks(t *testing.T) {
	net := feedbackRing(t, 4)
	if net.fbDirty == nil {
		net.fbDirty = make(map[varKey]bool)
	}
	net.fbDirty[varKey{Mapping: "ghost", Attr: "a"}] = true // no such mapping
	net.fbDirty[varKey{Mapping: "m0", Attr: "c"}] = true    // mapping exists, no factor ever touched m0/c
	_, comps := net.incrementalComponents(net.dirtyVars())
	if len(comps) != 0 {
		t.Fatalf("dead dirty marks grew %d components, want 0", len(comps))
	}

	net.fbDirty[varKey{Mapping: "ghost", Attr: "a"}] = true
	net.fbDirty[varKey{Mapping: "m0", Attr: "c"}] = true
	det, err := net.RunDetection(DetectOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if det.Rounds != 0 || !det.Converged || det.TouchedVars != 0 || det.Work.Components != 0 {
		t.Errorf("dead-mark incremental did work: %+v", det)
	}
	if net.DirtyFeedbackVars() != 0 {
		t.Error("dead marks were not consumed")
	}
}

// TestIncrementalClosureAfterRetraction: ingest feedback, retract a chain
// mapping mid-epoch (RemoveMapping), then re-detect incrementally. The
// closure must reference only surviving state, and the result must match a
// from-scratch network that only ever saw the surviving feedback.
func TestIncrementalClosureAfterRetraction(t *testing.T) {
	attrs := []schema.Attribute{"a"}
	obs := []QueryFeedback{
		{Attr: "a", Chain: []graph.EdgeID{"m0", "m1"}, Polarity: feedback.Negative},
		{Attr: "a", Chain: []graph.EdgeID{"m2", "m3"}, Polarity: feedback.Positive},
	}

	live := feedbackRing(t, 5, 1)
	if _, err := live.DiscoverStructural(attrs, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := live.IngestFeedback(fbOpts, obs...); err != nil {
		t.Fatal(err)
	}
	live.RemoveMapping("m1") // mid-epoch churn: retracts the m0-m1 factor too

	_, comps := live.incrementalComponents(live.dirtyVars())
	for _, c := range comps {
		for _, rv := range c.vars {
			if rv.vs.key.Mapping == "m1" {
				t.Errorf("component %v still contains the retracted m1", c.id)
			}
		}
	}
	// Re-mark (incrementalComponents consumed nothing, but RunDetection
	// will): run the real incremental detect over the surviving closure.
	incr, err := live.RunDetection(DetectOptions{Incremental: true, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if p := incr.Posterior("m1", "a", -1); p >= 0 {
		t.Errorf("retracted mapping still posts a posterior %v", p)
	}

	scratch := feedbackRing(t, 5, 1)
	if _, err := scratch.DiscoverStructural(attrs, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	scratch.RemoveMapping("m1")
	if _, err := scratch.IngestFeedback(fbOpts, obs[1]); err != nil { // only the surviving chain
		t.Fatal(err)
	}
	full, err := scratch.RunDetection(DetectOptions{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for m, mm := range incr.Posteriors {
		for a, got := range mm {
			want := full.Posterior(m, a, -1)
			if want < 0 {
				t.Errorf("incremental reports %s/%s, scratch does not", m, a)
				continue
			}
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("%s/%s: incremental-after-retraction %v vs scratch %v", m, a, got, want)
			}
		}
	}
}

// TestResidualMatchesFixedSweeps: on the same ingestion, the residual
// schedule and the forced lockstep sweeps must agree on posteriors within
// 1e-6 while the residual run applies no more message updates — the
// work-counter contract the 1000-peer benchmark asserts at scale.
func TestResidualMatchesFixedSweeps(t *testing.T) {
	build := func() *Network {
		net := feedbackRing(t, 6, 2)
		if _, err := net.DiscoverStructural([]schema.Attribute{"a"}, 4, 0.1); err != nil {
			t.Fatal(err)
		}
		if _, err := net.RunDetection(DetectOptions{Tolerance: 1e-9}); err != nil {
			t.Fatal(err)
		}
		if _, err := net.IngestFeedback(fbOpts,
			QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m1", "m2"}, Polarity: feedback.Negative},
			QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m4"}, Polarity: feedback.Positive},
		); err != nil {
			t.Fatal(err)
		}
		return net
	}

	resNet, fixNet := build(), build()
	residual, err := resNet.RunDetection(DetectOptions{Incremental: true, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// A Trace hook selects the lockstep sweeps (see DetectOptions.Incremental).
	lockstep := func(int, map[graph.EdgeID]map[schema.Attribute]float64) {}
	fixed, err := fixNet.RunDetection(DetectOptions{Incremental: true, Tolerance: 1e-9, Trace: lockstep})
	if err != nil {
		t.Fatal(err)
	}
	if residual.TouchedVars != fixed.TouchedVars {
		t.Errorf("touched %d vs %d vars", residual.TouchedVars, fixed.TouchedVars)
	}
	for m, mm := range fixed.Posteriors {
		for a, want := range mm {
			got := residual.Posterior(m, a, -1)
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("%s/%s: residual %v vs fixed sweeps %v", m, a, got, want)
			}
		}
	}
	if residual.Work.MessageUpdates == 0 || fixed.Work.MessageUpdates == 0 {
		t.Fatalf("work counters empty: residual %+v, fixed %+v", residual.Work, fixed.Work)
	}
	if residual.Work.MessageUpdates > fixed.Work.MessageUpdates {
		t.Errorf("residual applied %d message updates, lockstep %d: the frontier must not do more work",
			residual.Work.MessageUpdates, fixed.Work.MessageUpdates)
	}
}
