package sim

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schema"
)

// lockstep[true] is a no-op Trace hook, which keeps an incremental run on the
// lockstep sweeps (see core.DetectOptions.Incremental); lockstep[false] is nil.
var lockstep = map[bool]func(int, map[graph.EdgeID]map[schema.Attribute]float64){
	true: func(int, map[graph.EdgeID]map[schema.Attribute]float64) {},
}

// BenchmarkRedetect1000Peers compares the two ways to refresh posteriors
// after a feedback batch on a 1000-peer overlay whose evidence spans four
// per-attribute factor-graph instances (§4.1 fine granularity): a full
// re-detection (ResetMessages + belief propagation over every factor) versus
// the bounded incremental re-detection (reset and iterate only the
// components the batch dirtied — here the analysis attribute's instance;
// the other attributes' instances keep their converged state). The recorded
// numbers are the PERFORMANCE.md "incremental re-detect vs full detect" row.
// When a batch's closure spans the whole graph — e.g. evidence over a single
// attribute on one giant component — incremental degrades gracefully to
// full-detect cost.
func BenchmarkRedetect1000Peers(b *testing.B) {
	build := func(b *testing.B) (*Simulation, []core.QueryFeedback) {
		b.Helper()
		// Seed 2 yields a 1000-peer overlay whose dirty closure converges
		// (the regime the residual schedule optimizes). Many generated
		// overlays carry frustrated evidence loops where loopy BP does not
		// settle within the round budget; on those both schedules run to
		// MaxRounds and the comparison measures capped work, not convergence.
		sc, err := Generate(GenConfig{Seed: 2, Peers: 1000, Epochs: 1, Events: -1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(sc)
		if err != nil {
			b.Fatal(err)
		}
		attrs := make([]schema.Attribute, 0, s.sc.Attrs)
		for _, a := range s.attrs {
			attrs = append(attrs, a)
		}
		if _, err := s.net.Discover(core.DiscoverConfig{Attrs: attrs, MaxLen: s.sc.MaxLen, Delta: s.sc.Delta}); err != nil {
			b.Fatal(err)
		}
		det, err := s.net.RunDetection(core.DetectOptions{MaxRounds: s.sc.MaxRounds, Tolerance: 1e-9})
		if err != nil {
			b.Fatal(err)
		}
		// One feedback batch: 40 routed queries on the analysis attribute,
		// ground-truth verdicts at 10% noise. Re-ingesting the same batch
		// each iteration bumps the same factors (counts saturate), so the
		// dirty scope is steady across iterations.
		obs, viol, err := s.collectFeedbackObs(s.net.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: s.sc.Theta}), det, 40, 99, s.sc.FeedbackNoise)
		if err != nil || len(obs) == 0 || len(viol) != 0 {
			b.Fatalf("feedback batch: %d observations, violations %v, err %v", len(obs), viol, err)
		}
		return s, obs
	}

	b.Run("full", func(b *testing.B) {
		s, obs := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.net.IngestFeedback(core.FeedbackOptions{Delta: s.sc.Delta, Noise: 0.1}, obs...); err != nil {
				b.Fatal(err)
			}
			s.net.ResetMessages()
			if _, err := s.net.RunDetection(core.DetectOptions{MaxRounds: s.sc.MaxRounds, Tolerance: 1e-9}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The two incremental schedules: "sync" forces the pre-residual lockstep
	// sweeps over the dirty closure, "residual" (the default) runs the
	// frontier schedule. Same scope, same posteriors within 1e-6 — the work
	// counters and wall clock are the difference.
	for _, mode := range []struct {
		name  string
		fixed bool
	}{{"sync", true}, {"residual", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s, obs := build(b)
			b.ResetTimer()
			var touched int
			var work core.DetectWork
			for i := 0; i < b.N; i++ {
				if _, err := s.net.IngestFeedback(core.FeedbackOptions{Delta: s.sc.Delta, Noise: 0.1}, obs...); err != nil {
					b.Fatal(err)
				}
				det, err := s.net.RunDetection(core.DetectOptions{
					Incremental: true,
					Trace:       lockstep[mode.fixed],
					MaxRounds:   s.sc.MaxRounds,
					Tolerance:   1e-9,
				})
				if err != nil {
					b.Fatal(err)
				}
				touched = det.TouchedVars
				work = det.Work
			}
			b.ReportMetric(float64(touched), "touched-vars")
			b.ReportMetric(float64(work.MessageUpdates), "msg-updates")
		})
	}
}

// TestRedetectResidualCounter1000Peers is the deterministic form of the
// benchmark's claim, asserted on work counters instead of wall clock: on a
// feedback refresh, the residual schedule must apply no more message updates
// than the fixed lockstep sweeps over the same dirty closure (at most half on
// the 1000-peer refresh), while both converge to the same posteriors within
// 1e-6. The counters are bit-stable integers, so this gate cannot flake with
// machine load.
func TestRedetectResidualCounter1000Peers(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-peer redetect counter gate skipped in -short mode")
	}
	rows := []struct {
		name string
		// build returns a simulation whose network holds converged
		// posteriors and one ingested feedback batch, not yet re-detected.
		build func(t *testing.T) *Simulation
		// reduction is the least factor by which the residual schedule must
		// cut the sweeps' message updates.
		reduction int
	}{
		{"routed-batch-1000-peers", func(t *testing.T) *Simulation {
			// Seed 2: a 1000-peer closure that converges fast (see the
			// benchmark above).
			sc, err := Generate(GenConfig{Seed: 2, Peers: 1000, Epochs: 1, Events: -1})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(sc)
			if err != nil {
				t.Fatal(err)
			}
			attrs := make([]schema.Attribute, 0, s.sc.Attrs)
			attrs = append(attrs, s.attrs...)
			if _, err := s.net.Discover(core.DiscoverConfig{Attrs: attrs, MaxLen: s.sc.MaxLen, Delta: s.sc.Delta}); err != nil {
				t.Fatal(err)
			}
			det, err := s.net.RunDetection(core.DetectOptions{MaxRounds: s.sc.MaxRounds, Tolerance: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			obs, viol, err := s.collectFeedbackObs(s.net.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: s.sc.Theta}), det, 40, 99, s.sc.FeedbackNoise)
			if err != nil || len(obs) == 0 || len(viol) != 0 {
				t.Fatalf("feedback batch: %d observations, violations %v, err %v", len(obs), viol, err)
			}
			if _, err := s.net.IngestFeedback(s.feedbackOpts(0.1), obs...); err != nil {
				t.Fatal(err)
			}
			return s
		}, 2},
		{"adv-poison-verdicts", func(t *testing.T) *Simulation {
			// The adv-poison load spec's network after its first epoch's
			// detection, fed the poisoners' fabricated verdicts: one
			// component that contracts slowly, taking some 250 rounds to
			// converge, with long stretches where its frontier does not
			// shrink: the case a plateau rule misreads as oscillation.
			data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "pdmssim", "testdata", "adv-poison.load.json"))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ParseLoadSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(spec.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := s.advanceEpoch(0); err != nil {
				t.Fatal(err)
			}
			obs := s.adversaryObs()
			if len(obs) == 0 {
				t.Fatal("fixture: the poisoners fabricated no verdicts")
			}
			if _, err := s.net.IngestFeedback(s.feedbackOpts(0.1), obs...); err != nil {
				t.Fatal(err)
			}
			return s
		}, 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			refresh := func(fixed bool) core.DetectResult {
				s := row.build(t)
				opts := s.detectOpts(s.sc.MaxRounds)
				opts.Incremental, opts.Trace = true, lockstep[fixed]
				det, err := s.net.RunDetection(opts)
				if err != nil {
					t.Fatal(err)
				}
				return det
			}
			sync, residual := refresh(true), refresh(false)
			if !sync.Converged || !residual.Converged {
				t.Fatalf("converged: sync %v in %d rounds, residual %v in %d",
					sync.Converged, sync.Rounds, residual.Converged, residual.Rounds)
			}
			if sync.TouchedVars != residual.TouchedVars {
				t.Errorf("dirty closures differ: sync touched %d vars, residual %d",
					sync.TouchedVars, residual.TouchedVars)
			}
			for m, mm := range sync.Posteriors {
				for a, want := range mm {
					got := residual.Posterior(m, a, -1)
					if got < 0 || (got-want) > 1e-6 || (want-got) > 1e-6 {
						t.Errorf("%s/%s: residual %v vs sync %v", m, a, got, want)
					}
				}
			}
			sm, rm := sync.Work.MessageUpdates, residual.Work.MessageUpdates
			if rm == 0 || sm == 0 {
				t.Fatalf("empty work counters: sync %+v, residual %+v", sync.Work, residual.Work)
			}
			if row.reduction*rm > sm {
				t.Errorf("residual applied %d message updates, sync %d: want at least a %dx reduction", rm, sm, row.reduction)
			}
			t.Logf("message updates: sync %d, residual %d (%.1fx fewer); rounds %d vs %d",
				sm, rm, float64(sm)/float64(rm), sync.Rounds, residual.Rounds)
		})
	}
}
