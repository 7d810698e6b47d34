package sim

import (
	"math"
	"reflect"
	"testing"
)

// runScenario builds and replays sc, failing the test on any error.
func runScenario(t *testing.T, sc Scenario) *Result {
	t.Helper()
	s, err := New(sc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestFiftySeedCrashRecoveryDifferential is the durability differential: 50
// generated churn scenarios — message-loss and feedback epochs included —
// each replayed twice, once straight through and once with an injected
// crash (a seeded kill mid-detection plus a seeded, possibly frame-tearing
// cut of the write-ahead log's unsynced tail, then recovery from checkpoint
// + replay; a third of the seeds checkpoint every epoch and crash in every
// epoch after the first, so each of their recoveries reads a checkpoint
// written the epoch before). The crashed run must recover the exact
// inference state (digest equality, checked inside the epoch) and land on
// the same posteriors as the never-crashed run within 1e-6, with zero
// invariant violations.
func TestFiftySeedCrashRecoveryDifferential(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := GenConfig{
			Seed:            int64(200 + seed),
			Peers:           12,
			Epochs:          4,
			Events:          3,
			Queries:         4,
			FeedbackQueries: 6,
			FeedbackNoise:   0.1,
		}
		if seed%3 == 0 {
			cfg.PSend = 0.9 // every third scenario crashes under message loss
		}
		sc, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		sc.RecordPosteriors = true
		base := runScenario(t, sc)
		if base.Violations != 0 {
			t.Fatalf("seed %d: base run has %d violations", seed, base.Violations)
		}

		crash := sc
		crash.WAL = true
		crashEpochs := map[int]bool{1 + seed%(len(crash.Epochs)-1): true}
		if seed%5 == 0 {
			crashEpochs[len(crash.Epochs)-1] = true // a second crash later on
		}
		switch seed % 3 {
		case 0:
			crash.CheckpointEvery = 8 // checkpoints fire before the crash
		case 1:
			crash.CheckpointEvery = -1 // log-only recovery
		case 2:
			// A checkpoint at the end of every epoch and a crash in every
			// epoch after the first: each recovery goes through the export
			// the network wrote the epoch before, plus that epoch's log.
			crash.CheckpointEvery = 1
			for i := 1; i < len(crash.Epochs); i++ {
				crashEpochs[i] = true
			}
		}
		for i := range crash.Epochs {
			if crashEpochs[i] {
				crash.Epochs[i].CrashAt = 1 + seed%5
			}
		}
		crashed := runScenario(t, crash)
		if crashed.Violations != 0 {
			t.Errorf("seed %d: crashed run has %d violations: %s",
				seed, crashed.Violations, collectViolations(crashed))
		}
		for i, tr := range crashed.Epochs {
			want := crashEpochs[i]
			if (tr.Crash != nil) != want {
				t.Fatalf("seed %d epoch %d: crash trace presence = %v, want %v",
					seed, i+1, tr.Crash != nil, want)
			}
			if tr.Crash != nil && !tr.Crash.DigestMatch {
				t.Errorf("seed %d epoch %d: recovery digest mismatch", seed, i+1)
			}
			if tr.Crash != nil && seed%3 == 2 && tr.Crash.CheckpointRecords == 0 {
				t.Errorf("seed %d epoch %d: recovery read no checkpoint although one is due every epoch", seed, i+1)
			}
			ref := base.Epochs[i].Posteriors
			got := tr.Posteriors
			if len(ref) != len(got) {
				t.Fatalf("seed %d epoch %d: posterior coverage %d vs %d",
					seed, i+1, len(got), len(ref))
			}
			for key, p := range ref {
				q, ok := got[key]
				if !ok {
					t.Fatalf("seed %d epoch %d: posterior %s missing from crashed run",
						seed, i+1, key)
				}
				if math.Abs(p-q) > 1e-6 {
					t.Errorf("seed %d epoch %d: posterior %s differs by %.2e",
						seed, i+1, key, math.Abs(p-q))
				}
			}
		}
		// Reset the timeline for the journal-perturbation check below.
		for i := range crash.Epochs {
			crash.Epochs[i].CrashAt = 0
		}
	}
}

// The serving plane survives a crash: the workload engine swaps in the
// recovered network, restarts the server against it with a cold cache, and
// keeps answering — every query served, zero errors, deterministic across
// two runs of the same crashing spec.
func TestWorkloadSurvivesCrash(t *testing.T) {
	sc, err := Generate(GenConfig{
		Seed:   41,
		Peers:  10,
		Epochs: 3,
		Events: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0
	}
	sc.WAL = true
	sc.CheckpointEvery = 16
	sc.Epochs[1].CrashAt = 2
	spec := LoadSpec{Scenario: sc, Workload: Workload{
		Clients: 3, QueriesPerEpoch: 90,
		Feedback: true, FeedbackNoise: 0.05, FeedbackRate: 0.5,
	}}

	var results []*WorkloadResult
	for run := 0; run < 2; run++ {
		s, err := New(spec.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := s.RunWorkload(spec.Workload, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range res.Epochs {
			if ep.Served != ep.Queries || ep.Errors != 0 {
				t.Fatalf("run %d epoch %d: served %d/%d with %d errors",
					run, ep.Epoch, ep.Served, ep.Queries, ep.Errors)
			}
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("crashing workload trace is not deterministic")
	}
}

// Journaling alone must not perturb the simulation: with the WAL attached
// but no crash injected, the trace is bit-identical to the unjournaled run.
func TestWALDoesNotPerturbTrace(t *testing.T) {
	for _, seed := range []int64{301, 302, 303} {
		sc, err := Generate(GenConfig{
			Seed:            seed,
			Peers:           12,
			Epochs:          3,
			Events:          3,
			Queries:         4,
			FeedbackQueries: 4,
			FeedbackNoise:   0.1,
			Verify:          true,
		})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		base := runScenario(t, sc)

		journaled := sc
		journaled.WAL = true
		journaled.CheckpointEvery = 16
		walRes := runScenario(t, journaled)
		if walRes.Digest != base.Digest {
			t.Errorf("seed %d: WAL run digest %s differs from plain run %s",
				seed, walRes.Digest, base.Digest)
		}
		if !reflect.DeepEqual(walRes.Epochs, base.Epochs) {
			t.Errorf("seed %d: WAL run epoch traces differ from the plain run", seed)
		}
	}
}
