package sim

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestClientSeedsUnique pins the splitmix64-based per-client seed
// derivation: no (epoch, client) pair may share an RNG seed. The previous
// XOR-of-multiples formula collided — e.g. (epoch 45, client 3) and
// (epoch 44, client 158) drew identical query streams — which this sweep
// would have caught.
func TestClientSeedsUnique(t *testing.T) {
	for _, seed := range []int64{0, 1, 21, -7, 1 << 40} {
		seen := make(map[int64][2]int)
		for epoch := 0; epoch < 128; epoch++ {
			for client := 0; client < 256; client++ {
				s := clientSeed(seed, epoch, client)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed %d: (epoch %d, client %d) collides with (epoch %d, client %d)",
						seed, epoch, client, prev[0], prev[1])
				}
				seen[s] = [2]int{epoch, client}
			}
		}
	}
	// The old derivation really did collide in this range — keep the
	// regression honest by demonstrating the bug it fixes.
	old := func(seed int64, epoch, client int) int64 {
		return seed*31 ^ int64(epoch+1)*1_000_003 ^ int64(client+1)*7919
	}
	seen := make(map[int64]bool)
	collided := false
	for epoch := 0; epoch < 128 && !collided; epoch++ {
		for client := 0; client < 256; client++ {
			v := old(1, epoch, client)
			if seen[v] {
				collided = true
				break
			}
			seen[v] = true
		}
	}
	if !collided {
		t.Error("the old formula no longer collides here; update the comment above")
	}
}

// feedbackLoadSpec is the churny feedback-enabled spec the workload feedback
// tests share.
func feedbackLoadSpec(t *testing.T, seed int64) LoadSpec {
	t.Helper()
	sc, err := Generate(GenConfig{Seed: seed, Peers: 10, Epochs: 3, Events: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0
	}
	return LoadSpec{Scenario: sc, Workload: Workload{
		Clients:         3,
		QueriesPerEpoch: 120,
		Feedback:        true,
		FeedbackNoise:   0.1,
	}}
}

// TestWorkloadFeedbackDeterministic: the full feedback cycle — concurrent
// clients judging answers, queue drain, ingestion, incremental re-detect,
// republish — produces an identical aggregate trace on every run.
func TestWorkloadFeedbackDeterministic(t *testing.T) {
	spec := feedbackLoadSpec(t, 31)
	var results []*Result
	for run := 0; run < 2; run++ {
		s, err := New(spec.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := s.RunWorkload(spec.Workload, nil)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		a, _ := json.Marshal(results[0])
		b, _ := json.Marshal(results[1])
		t.Fatalf("feedback workload trace is not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestWorkloadFeedbackAccounting: every epoch runs the full cycle — the
// serving snapshot and the post-feedback republication alternate epochs, the
// re-detect stays bounded to the dirty scope, and the trace carries the
// convergence numbers.
func TestWorkloadFeedbackAccounting(t *testing.T) {
	spec := feedbackLoadSpec(t, 32)
	s, err := New(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.RunWorkload(spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	sawObservations := false
	for i, ep := range res.Epochs {
		if ep.Feedback == nil {
			t.Fatalf("epoch %d: no feedback trace", ep.Epoch)
		}
		ft := ep.Feedback
		// Serving published snapshot 2i+1; the feedback cycle republished
		// 2i+2.
		if ep.SnapshotEpoch != uint64(2*i+1) || ft.SnapshotEpoch != uint64(2*i+2) {
			t.Errorf("epoch %d: served snapshot %d, republished %d; want %d and %d",
				ep.Epoch, ep.SnapshotEpoch, ft.SnapshotEpoch, 2*i+1, 2*i+2)
		}
		if ft.Observations != ft.Positive+ft.Negative+ft.Neutral {
			t.Errorf("epoch %d: %d observations != %d+%d+%d by polarity",
				ep.Epoch, ft.Observations, ft.Positive, ft.Negative, ft.Neutral)
		}
		if ft.Observations > 0 {
			sawObservations = true
			if ft.NewFactors+ft.Bumped == 0 && ft.Stale == 0 && ft.Positive+ft.Negative > 0 {
				t.Errorf("epoch %d: polar observations installed nothing: %+v", ep.Epoch, ft)
			}
		}
		if ft.ErrBefore < 0 || ft.ErrBefore > 1 || ft.ErrAfter < 0 || ft.ErrAfter > 1 {
			t.Errorf("epoch %d: posterior error out of range: %+v", ep.Epoch, ft)
		}
	}
	if !sawObservations {
		t.Error("no epoch produced any feedback observations")
	}
}

// TestReplayFeedbackEpochsFiftySeedDifferential is the incremental-vs-scratch
// oracle of the feedback plane at scale: 50 generated churny scenarios run
// feedback epochs (ground-truth verdicts at 10% noise, ingestion, bounded
// incremental re-detection) with Verify enabled, so every epoch the
// maintained state — structural evidence plus feedback factors — is compared
// against a from-scratch rebuild (full rediscovery + one-batch feedback
// replay + full detection): identical digests, posteriors within 1e-6.
func TestReplayFeedbackEpochsFiftySeedDifferential(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	observed := 0
	for seed := 0; seed < seeds; seed++ {
		cfg := GenConfig{
			Seed:            int64(200 + seed),
			Peers:           12,
			Epochs:          3,
			Events:          3,
			Verify:          true,
			FeedbackQueries: 6,
			FeedbackNoise:   0.1,
		}
		if seed%4 == 0 {
			cfg.PSend = 0.9 // feedback epochs under message loss too
		}
		sc, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		s, err := New(sc)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Violations != 0 {
			t.Errorf("seed %d: %d violations: %s", seed, res.Violations, collectViolations(res))
		}
		for _, ep := range res.Epochs {
			if ep.Feedback != nil {
				observed += ep.Feedback.Observations
			}
		}
	}
	if observed == 0 {
		t.Fatal("no seed ingested a single feedback observation: the differential proved nothing")
	}
}

// TestFeedbackConvergenceAcceptance is the convergence oracle of the
// feedback loop: on a 100-peer churny network, with a ground-truth feedback
// policy flipping 10% of its verdicts, serving and feeding back 10k queries
// must leave the mean posterior error (against the known corruption ground
// truth) strictly below where it started — the network learns from traffic.
func TestFeedbackConvergenceAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-query convergence run skipped in -short mode")
	}
	sc, err := Generate(GenConfig{Seed: 7, Peers: 100, Epochs: 5, Events: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0
	}
	s, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.RunWorkload(Workload{
		Clients:         4,
		QueriesPerEpoch: 2000,
		Feedback:        true,
		FeedbackNoise:   0.1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed != 10000 {
		t.Fatalf("served %d queries, want 10000", res.TotalServed)
	}
	first := res.Epochs[0].Feedback
	last := res.Epochs[len(res.Epochs)-1].Feedback
	if first == nil || last == nil {
		t.Fatal("missing feedback traces")
	}
	if last.ErrAfter >= first.ErrBefore {
		t.Errorf("posterior error did not improve: %.4f at epoch 0 -> %.4f after 10k fed-back queries",
			first.ErrBefore, last.ErrAfter)
	}
	t.Logf("mean posterior error: %.4f -> %.4f over %d served queries",
		first.ErrBefore, last.ErrAfter, res.TotalServed)
}
