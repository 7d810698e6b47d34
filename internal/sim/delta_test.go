package sim

import (
	"testing"
)

// TestRevalidationByteEquivalenceOracle is the serve-side differential of
// delta publication: the same feedback-on workload runs once with delta
// snapshots (cached answers revalidate across republications) and once with
// Workload.FullPublish (every publication rebuilds from scratch and every
// republication cold-starts the cache — the pre-delta behaviour). The two
// runs must produce byte-identical traces: every per-epoch answer digest
// covers origin, query, snapshot epoch and the canonical result bytes of
// every answer, so a single revalidated answer whose bytes (or epoch stamp)
// diverge from what a cold cache would have computed fails the oracle.
//
// Scenarios rotate through static, churny and lossy shapes; the oracle also
// requires that the delta runs actually revalidated somewhere (otherwise it
// proves nothing).
func TestRevalidationByteEquivalenceOracle(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 12
	}
	totalRevalidated, totalDeltaEpochs := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		cfg := GenConfig{Seed: 3000 + seed, Peers: 9, Epochs: 3, Attrs: 3}
		switch seed % 3 {
		case 0: // static: feedback republication is the only posterior motion
			cfg.Events = -1
		case 1: // churny: full publications interleave with deltas
			cfg.Events = 2
		default: // lossy detection epochs
			cfg.Events = -1
			cfg.PSend = 0.8
		}
		sc, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sc.Epochs {
			sc.Epochs[i].Queries = 0
		}
		w := Workload{
			Clients:         3,
			QueriesPerEpoch: 120,
			Feedback:        true,
			FeedbackNoise:   0.05,
		}

		run := func(full bool) *Result {
			t.Helper()
			s, err := New(sc)
			if err != nil {
				t.Fatal(err)
			}
			wc := w
			wc.FullPublish = full
			res, _, err := s.RunWorkload(wc, nil)
			if err != nil {
				t.Fatalf("seed %d (full=%t): %v", seed, full, err)
			}
			return res
		}
		delta, cold := run(false), run(true)

		if delta.Digest != cold.Digest {
			t.Errorf("seed %d: delta-run digest %s != cold-cache digest %s", seed, delta.Digest, cold.Digest)
		}
		if len(delta.Epochs) != len(cold.Epochs) {
			t.Fatalf("seed %d: epoch counts differ", seed)
		}
		for i := range delta.Epochs {
			d, c := delta.Epochs[i], cold.Epochs[i]
			if d.Digest != c.Digest {
				t.Errorf("seed %d epoch %d: answers diverge (delta %s vs cold %s)", seed, d.Epoch, d.Digest, c.Digest)
			}
			if d.Served != c.Served || d.Visits != c.Visits || d.Records != c.Records {
				t.Errorf("seed %d epoch %d: aggregates diverge: %+v vs %+v", seed, d.Epoch, d, c)
			}
			if c.Revalidated != 0 {
				t.Errorf("seed %d epoch %d: FullPublish run revalidated %d answers", seed, d.Epoch, c.Revalidated)
			}
			if !c.DeltaFull {
				t.Errorf("seed %d epoch %d: FullPublish run published a delta", seed, d.Epoch)
			}
			totalRevalidated += d.Revalidated
			if !d.DeltaFull {
				totalDeltaEpochs++
			}
		}
	}
	if totalDeltaEpochs == 0 {
		t.Error("oracle vacuous: no epoch was ever published as a delta")
	}
	if totalRevalidated == 0 {
		t.Error("oracle vacuous: no answer was ever revalidated")
	}
}
