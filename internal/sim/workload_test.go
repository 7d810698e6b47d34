package sim

import (
	"encoding/json"
	"reflect"
	"testing"
)

// workloadSpec is the small churny spec the workload tests share.
func workloadSpec(t *testing.T, seed int64) LoadSpec {
	t.Helper()
	sc, err := Generate(GenConfig{Seed: seed, Peers: 10, Epochs: 2, Events: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0
	}
	return LoadSpec{Scenario: sc, Workload: Workload{Clients: 3, QueriesPerEpoch: 90}}
}

// TestWorkloadDeterministic: two independent runs of the same spec produce
// identical aggregate traces — served counts, cache hits, digests —
// whatever the goroutine interleaving.
func TestWorkloadDeterministic(t *testing.T) {
	spec := workloadSpec(t, 21)
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
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		a, _ := json.Marshal(results[0])
		b, _ := json.Marshal(results[1])
		t.Fatalf("workload trace is not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestWorkloadAccounting: every query is answered, every answer is either a
// cache hit or a computation, and the barriered engine never observes a
// stale epoch.
func TestWorkloadAccounting(t *testing.T) {
	spec := workloadSpec(t, 22)
	s, err := New(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	res, perf, err := s.RunWorkload(spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != len(spec.Scenario.Epochs) {
		t.Fatalf("traced %d epochs, want %d", len(res.Epochs), len(spec.Scenario.Epochs))
	}
	for _, ep := range res.Epochs {
		if ep.Served != ep.Queries || ep.Errors != 0 {
			t.Errorf("epoch %d: served %d of %d with %d errors", ep.Epoch, ep.Served, ep.Queries, ep.Errors)
		}
		if ep.CacheHits+ep.Revalidated+ep.Computed != ep.Served {
			t.Errorf("epoch %d: hits %d + revalidated %d + computed %d != served %d",
				ep.Epoch, ep.CacheHits, ep.Revalidated, ep.Computed, ep.Served)
		}
		if ep.StaleReads != 0 {
			t.Errorf("epoch %d: %d stale reads in barriered mode", ep.Epoch, ep.StaleReads)
		}
		if ep.SnapshotEpoch != uint64(ep.Epoch) {
			t.Errorf("epoch %d served snapshot epoch %d", ep.Epoch, ep.SnapshotEpoch)
		}
		if len(ep.Digest) != 64 {
			t.Errorf("epoch %d digest %q is not a sha256 hex", ep.Epoch, ep.Digest)
		}
	}
	if res.TotalServed != 180 {
		t.Errorf("total served %d, want 180", res.TotalServed)
	}
	if perf.Served != res.TotalServed || perf.Elapsed <= 0 {
		t.Errorf("perf %+v inconsistent with trace", perf)
	}
}

// TestWorkloadHotSkewHitsCache: with heavy hot-key skew the cache must
// absorb most of the traffic.
func TestWorkloadHotSkewHitsCache(t *testing.T) {
	spec := workloadSpec(t, 23)
	spec.Workload.Hot = 1.0
	spec.Workload.HotKeys = 2
	spec.Workload.QueriesPerEpoch = 600
	s, err := New(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.RunWorkload(spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 hot origins × ≤4 literals × 3 templates bounds the distinct keys.
	for _, ep := range res.Epochs {
		if ep.Computed > 24 {
			t.Errorf("epoch %d: %d computations for a ≤24-key hot set", ep.Epoch, ep.Computed)
		}
		if ep.CacheHits < ep.Served*9/10 {
			t.Errorf("epoch %d: only %d/%d cache hits under full skew", ep.Epoch, ep.CacheHits, ep.Served)
		}
	}
}

// TestWorkloadQPSCap: a QPS cap slows the run down without changing the
// deterministic trace.
func TestWorkloadQPSCap(t *testing.T) {
	spec := workloadSpec(t, 24)
	spec.Workload.QueriesPerEpoch = 30
	free, err := New(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	resFree, _, err := free.RunWorkload(spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.QPS = 2000
	capped, err := New(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	resCapped, perf, err := capped.RunWorkload(spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resFree, resCapped) {
		t.Error("QPS cap changed the deterministic trace")
	}
	// 60 queries at 2000 QPS aggregate should take ≥ ~25ms.
	if perf.Elapsed.Milliseconds() < 20 {
		t.Errorf("capped run finished in %v, pacing seems inactive", perf.Elapsed)
	}
}

// TestWorkloadValidation: bad workload parameters fail loudly.
func TestWorkloadValidation(t *testing.T) {
	sc, err := Generate(GenConfig{Seed: 1, Peers: 8, Epochs: 1, Events: -1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Workload{
		{Clients: -1},
		{QueriesPerEpoch: -5},
		{Hot: 1.5},
		{QPS: -1},
		{Records: -1},
		{Vocab: 101},
	}
	for _, w := range bad {
		s, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.RunWorkload(w, nil); err == nil {
			t.Errorf("workload %+v: want validation error", w)
		}
	}
}

// TestParseLoadSpec: unknown fields — the retired baseline knobs included —
// are rejected, valid specs round-trip.
func TestParseLoadSpec(t *testing.T) {
	for _, bad := range []string{
		`{"workload": {"nope": 1}}`,
		`{"workload": {"fullPublish": true}}`,
		`{"workload": {"FullPublish": true}}`,
		`{"workload": {"pipelineAfter": 0.25}}`,
		`{"scenario": {"fixedSweeps": true}}`,
	} {
		if _, err := ParseLoadSpec([]byte(bad)); err == nil {
			t.Errorf("%s: want unknown-field error", bad)
		}
	}
	if _, err := ParseScenario([]byte(`{"fixedSweeps": true}`)); err == nil {
		t.Error("scenario with fixedSweeps: want unknown-field error")
	}
	spec, err := ParseLoadSpec([]byte(`{"scenario": {"peers": 8, "epochs": [{}]}, "workload": {"clients": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Workload.Clients != 2 || spec.Scenario.Peers != 8 {
		t.Errorf("parsed %+v", spec)
	}
}
