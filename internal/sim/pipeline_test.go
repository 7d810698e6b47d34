package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// pipelineLoadSpec is the feedback spec the pipelined tests share, with the
// refresh overlapped with serving.
func pipelineLoadSpec(t *testing.T, seed int64) LoadSpec {
	t.Helper()
	spec := feedbackLoadSpec(t, seed)
	spec.Workload.Pipeline = true
	return spec
}

// normalized returns a copy of the result with StaleReads zeroed — answers
// that complete after a snapshot swap, the one field a pathological scheduler
// could perturb under pipelined refresh (the engine never swaps mid-phase,
// but the guard keeps the comparison honest if that ever changes). Everything
// else is pinned by construction: the drain point, the ingested batches and
// the publication barriers are all scheduling-independent.
func normalized(r *Result) *Result {
	cp := *r
	cp.Epochs = append([]EpochTrace(nil), r.Epochs...)
	for i := range cp.Epochs {
		cp.Epochs[i].StaleReads = 0
	}
	return &cp
}

// finalPosteriors reads the run's last published snapshot's posterior for
// every live mapping on the analysis attribute.
func finalPosteriors(s *Simulation) map[string]float64 {
	snap := s.Network().Snapshot()
	attr := analysisAttr
	out := make(map[string]float64)
	for _, id := range s.liveMappings() {
		if p := snap.Posterior(graph.EdgeID(id), attr, -1); p >= 0 {
			out[id] = p
		}
	}
	return out
}

// TestPipelinedMatchesBarrier is the pipelined-vs-barrier differential: the
// same feedback spec runs with the refresh as an epoch barrier and with it
// overlapped behind the second serving sub-phase. The served answers must be
// byte-identical at every epoch (both modes serve each epoch entirely from
// the barrier-published snapshot — the pipeline moves the refresh's
// wall-clock placement, never the bytes a client sees) and, once the
// pipelined run's final drain re-detects the last tail, the published
// posteriors must agree within 1e-6. 50 generated churny seeds (8 in -short).
func TestPipelinedMatchesBarrier(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	// The second row is the regime where a refresh that dropped the scenario's
	// NoTrust flag shows: noisy verdicts make trust weighting bite, so a tail
	// ingested with trust on diverges from the barrier run's trust-off state.
	rows := []struct {
		name    string
		noTrust bool
		noise   float64
	}{
		{name: "trust", noise: 0.1},
		{name: "noTrust-noisy", noTrust: true, noise: 0.3},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				spec := feedbackLoadSpec(t, int64(400+seed))
				spec.Scenario.NoTrust = row.noTrust
				spec.Workload.FeedbackNoise = row.noise

				sb, err := New(spec.Scenario)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				barrier, _, err := sb.RunWorkload(spec.Workload, nil)
				if err != nil {
					t.Fatalf("seed %d: barrier run: %v", seed, err)
				}

				wp := spec.Workload
				wp.Pipeline = true
				sp, err := New(spec.Scenario)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				piped, _, err := sp.RunWorkload(wp, nil)
				if err != nil {
					t.Fatalf("seed %d: pipelined run: %v", seed, err)
				}

				if len(barrier.Epochs) != len(piped.Epochs) {
					t.Fatalf("seed %d: epoch count %d vs %d", seed, len(barrier.Epochs), len(piped.Epochs))
				}
				for i := range barrier.Epochs {
					be, pe := barrier.Epochs[i], piped.Epochs[i]
					if be.Digest != pe.Digest {
						t.Errorf("seed %d epoch %d: answer digests diverge: %s vs %s", seed, be.Epoch, be.Digest, pe.Digest)
					}
					if be.Served != pe.Served || be.CacheHits != pe.CacheHits || be.Errors != pe.Errors {
						t.Errorf("seed %d epoch %d: serve counts diverge: %d/%d/%d vs %d/%d/%d",
							seed, be.Epoch, be.Served, be.CacheHits, be.Errors, pe.Served, pe.CacheHits, pe.Errors)
					}
					if pe.Feedback == nil || !pe.Feedback.Pipelined {
						t.Fatalf("seed %d epoch %d: pipelined run missing pipelined feedback trace", seed, be.Epoch)
					}
					// Both modes ingest the same epoch's observations before the next
					// epoch begins — the pipeline only splits the batch in two.
					if be.Feedback.Observations != pe.Feedback.Observations {
						t.Errorf("seed %d epoch %d: ingested %d vs %d observations",
							seed, be.Epoch, be.Feedback.Observations, pe.Feedback.Observations)
					}
				}
				if barrier.Digest != piped.Digest {
					t.Errorf("seed %d: run digests diverge", seed)
				}
				if piped.FinalRefresh == nil {
					t.Fatalf("seed %d: pipelined run has no final refresh", seed)
				}
				if barrier.FinalRefresh != nil {
					t.Errorf("seed %d: barrier run has a final refresh", seed)
				}

				pb, pp := finalPosteriors(sb), finalPosteriors(sp)
				if len(pb) == 0 || len(pb) != len(pp) {
					t.Fatalf("seed %d: posterior coverage %d vs %d", seed, len(pb), len(pp))
				}
				for id, want := range pb {
					got, ok := pp[id]
					if !ok || math.Abs(got-want) > 1e-6 {
						t.Errorf("seed %d: final posterior for %s: barrier %.9f, pipelined %.9f", seed, id, want, got)
					}
				}
			}
		})
	}
}

// TestPipelinedTraceDeterministic is the deflake guard for the overlapped
// engine: five runs of the same pipelined spec — detection racing the second
// serving sub-phase each epoch — must produce identical traces, both raw and
// through Normalized (which zeroes the scheduling-sensitive StaleReads so
// the comparison stays honest if the engine ever starts swapping snapshots
// mid-phase).
func TestPipelinedTraceDeterministic(t *testing.T) {
	spec := pipelineLoadSpec(t, 33)
	var first *Result
	for run := 0; run < 5; run++ {
		s, err := New(spec.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := s.RunWorkload(spec.Workload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(normalized(first), normalized(res)) {
			a, _ := json.Marshal(normalized(first))
			b, _ := json.Marshal(normalized(res))
			t.Fatalf("run %d: normalized pipelined trace diverged:\n%s\nvs\n%s", run, a, b)
		}
		if !reflect.DeepEqual(first, res) {
			t.Fatalf("run %d: raw pipelined trace diverged (scheduling leaked into the trace)", run)
		}
	}
}

// TestPipelinedAccounting: the per-epoch traces of a pipelined run carry the
// split bookkeeping — pipelined flag, head+tail observation totals, work
// counters — and the final drain cleans up the last tail.
func TestPipelinedAccounting(t *testing.T) {
	spec := pipelineLoadSpec(t, 34)
	s, err := New(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	res, perf, err := s.RunWorkload(spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	sawTail := false
	work := 0
	for _, ep := range res.Epochs {
		ft := ep.Feedback
		if ft == nil || !ft.Pipelined {
			t.Fatalf("epoch %d: missing pipelined feedback trace", ep.Epoch)
		}
		if ft.TailObservations > ft.Observations {
			t.Errorf("epoch %d: tail %d exceeds total %d", ep.Epoch, ft.TailObservations, ft.Observations)
		}
		if ft.TailObservations > 0 {
			sawTail = true
		}
		if ft.Observations != ft.Positive+ft.Negative+ft.Neutral {
			t.Errorf("epoch %d: %d observations != %d+%d+%d by polarity",
				ep.Epoch, ft.Observations, ft.Positive, ft.Negative, ft.Neutral)
		}
		work += ft.Work.MessageUpdates
	}
	if !sawTail {
		t.Error("no epoch collected tail observations: the split point never landed mid-stream")
	}
	if res.FinalRefresh == nil {
		t.Fatal("no final refresh")
	}
	if res.FinalRefresh.Observations != 0 {
		t.Errorf("final drain ingested %d observations; every batch should drain at an epoch barrier",
			res.FinalRefresh.Observations)
	}
	work += res.FinalRefresh.Work.MessageUpdates
	if work == 0 {
		t.Error("no refresh recorded any message updates")
	}
	if perf.Work.MessageUpdates != work {
		t.Errorf("perf work counter %d != %d summed over traces", perf.Work.MessageUpdates, work)
	}
}

// TestPipelinedValidation: the spec-level guard — pipelining needs a refresh
// to overlap.
func TestPipelinedValidation(t *testing.T) {
	sc, err := Generate(GenConfig{Seed: 9, Peers: 8, Epochs: 1, Events: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunWorkload(Workload{Pipeline: true}, nil); err == nil {
		t.Error("pipeline without feedback: want error")
	}
}

// TestDetectWorkersDeterministic: component-parallel re-detection is an
// implementation detail — a 2-worker run must produce a trace bit-identical
// to the serial run of the same spec, work counters included (per-component
// transports are seeded from the component's canonical identity and results
// merge in canonical order, so the worker count can never show through).
func TestDetectWorkersDeterministic(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		spec := feedbackLoadSpec(t, 35)
		spec.Workload.Pipeline = pipeline

		serial, err := New(spec.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		resSerial, _, err := serial.RunWorkload(spec.Workload, nil)
		if err != nil {
			t.Fatal(err)
		}

		spec.Scenario.DetectWorkers = 2
		par, err := New(spec.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		resPar, _, err := par.RunWorkload(spec.Workload, nil)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(resSerial, resPar) {
			a, _ := json.Marshal(resSerial)
			b, _ := json.Marshal(resPar)
			t.Fatalf("pipeline=%v: 2-worker trace differs from serial:\n%s\nvs\n%s", pipeline, a, b)
		}
	}
}
