package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
)

// testPub owns a peerless network whose snapshots drive the cache in these
// tests: publish() installs the next epoch as a delta with an empty change
// set (every entry revalidates), publishFull() as a from-scratch publication
// (no delta chain — nothing revalidates).
type testPub struct{ net *core.Network }

func newTestPub() *testPub { return &testPub{net: core.NewNetwork(true)} }

func (p *testPub) publish() *core.RoutingSnapshot {
	return p.net.PublishSnapshot(core.DetectResult{}, core.SnapshotOptions{})
}

func (p *testPub) publishFull() *core.RoutingSnapshot {
	return p.net.PublishSnapshot(core.DetectResult{}, core.SnapshotOptions{ForceFull: true})
}

// answerAt fabricates a compute function returning an answer consistent with
// whatever snapshot the cache passes it, tagging Answered for identification.
func answerAt(tag int, calls *int) computeFn {
	return func(snap *core.RoutingSnapshot, _ graph.PeerID, _ query.Query) (Answer, core.Sig, error) {
		if calls != nil {
			*calls++
		}
		return Answer{Epoch: snap.Epoch(), Answered: tag}, core.Sig{}, nil
	}
}

// TestCachePanicRecovery: a panicking computation must surface as an error
// and fully finalize the entry — waiters unblock, the key is recomputable,
// and nothing is cached. (Without the recover/finalize defer, one panic
// would leave the entry in-flight forever and deadlock every later request
// for the key.)
func TestCachePanicRecovery(t *testing.T) {
	c := newCache(64)
	snap := newTestPub().publish()
	_, _, err := c.getOrCompute([]byte("k"), snap, "", query.Query{},
		func(*core.RoutingSnapshot, graph.PeerID, query.Query) (Answer, core.Sig, error) {
			panic("boom")
		})
	if err == nil {
		t.Fatal("panicking compute: want error")
	}
	// The key must be immediately computable again (no stuck in-flight
	// entry, no cached error).
	ans, kind, err := c.getOrCompute([]byte("k"), snap, "", query.Query{}, answerAt(7, nil))
	if err != nil || kind != hitMiss || ans.Answered != 7 {
		t.Fatalf("recompute after panic: ans %+v kind %v err %v", ans, kind, err)
	}
	if c.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.len())
	}
}

// TestCacheErrorNotCached: failed computations are retried, successful ones
// stick, and eviction holds the global budget.
func TestCacheErrorNotCached(t *testing.T) {
	c := newCache(16)
	snap := newTestPub().publish()
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.getOrCompute([]byte("k"), snap, "", query.Query{},
			func(*core.RoutingSnapshot, graph.PeerID, query.Query) (Answer, core.Sig, error) {
				calls++
				return Answer{}, core.Sig{}, errors.New("nope")
			})
		if err == nil {
			t.Fatal("want error")
		}
	}
	if calls != 2 {
		t.Errorf("error was cached: %d calls, want 2", calls)
	}
	// Overflow the budget: insertions beyond the global size evict the
	// least recent entries, never more.
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if _, _, err := c.getOrCompute(key, snap, "", query.Query{}, answerAt(0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.len(); got != 16 {
		t.Errorf("cache holds %d entries, want exactly the 16-entry budget", got)
	}
}

// skewedKeys returns n distinct keys that all hash into the same shard — the
// adversarial distribution that used to evict at size/16 residency.
func skewedKeys(n int) []string {
	target := shardIndex([]byte("skew-0"))
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("skew-%d", i)
		if shardIndex([]byte(k)) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCacheGlobalBudgetUnderSkew: with every key landing in one shard, the
// cache must keep all of them resident up to the global size — the exact
// hot-key skew the workload engine generates. (The old per-shard capacity of
// ceil(size/16) evicted after 4 keys here.)
func TestCacheGlobalBudgetUnderSkew(t *testing.T) {
	const size = 64
	c := newCache(size)
	snap := newTestPub().publish()
	keys := skewedKeys(size)
	for _, k := range keys {
		if _, _, err := c.getOrCompute([]byte(k), snap, "", query.Query{}, answerAt(0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.len(); got != size {
		t.Fatalf("one-shard skew: %d resident entries, want the full budget of %d", got, size)
	}
	for _, k := range keys {
		_, kind, err := c.getOrCompute([]byte(k), snap, "", query.Query{},
			func(*core.RoutingSnapshot, graph.PeerID, query.Query) (Answer, core.Sig, error) {
				t.Errorf("key %q was evicted while the cache was within budget", k)
				return Answer{}, core.Sig{}, nil
			})
		if err != nil || kind != hitFresh {
			t.Fatalf("key %q: kind=%v err=%v", k, kind, err)
		}
	}
	// One key past the budget evicts exactly the least recent entry.
	extra := skewedKeys(size + 1)[size]
	if _, _, err := c.getOrCompute([]byte(extra), snap, "", query.Query{}, answerAt(0, nil)); err != nil {
		t.Fatal(err)
	}
	if got := c.len(); got != size {
		t.Errorf("after overflow: %d resident entries, want %d", got, size)
	}
	if _, kind, _ := c.getOrCompute([]byte(keys[0]), snap, "", query.Query{}, answerAt(0, nil)); kind != hitMiss {
		t.Error("least recent key survived an over-budget insertion")
	}
}

// TestCacheRevalidation: entries survive delta publications whose change set
// misses their route signature — rebound, not recomputed — while a full
// publication (no delta chain) forces recomputation.
func TestCacheRevalidation(t *testing.T) {
	pub := newTestPub()
	c := newCache(64)
	s1 := pub.publish()
	calls := 0
	if _, kind, err := c.getOrCompute([]byte("k"), s1, "", query.Query{}, answerAt(1, &calls)); err != nil || kind != hitMiss {
		t.Fatalf("prime: kind=%v err=%v", kind, err)
	}

	// Delta publication with an empty change set: the entry revalidates.
	s2 := pub.publish()
	if s2.Delta() == nil {
		t.Fatal("second publication on an unchanged network should carry a delta")
	}
	ans, kind, err := c.getOrCompute([]byte("k"), s2, "", query.Query{}, answerAt(2, &calls))
	if err != nil || kind != hitRevalidated || calls != 1 {
		t.Fatalf("after delta swap: kind=%v calls=%d err=%v", kind, calls, err)
	}
	if ans.Answered != 1 {
		t.Fatalf("revalidated answer content changed: %+v", ans)
	}
	// A second lookup at the same epoch is a plain hit on the rebound entry.
	if _, kind, _ = c.getOrCompute([]byte("k"), s2, "", query.Query{}, answerAt(2, &calls)); kind != hitFresh || calls != 1 {
		t.Fatalf("rebound entry: kind=%v calls=%d", kind, calls)
	}

	// Full publication: no delta chain, the entry cannot prove validity and
	// is replaced by a fresh computation.
	s3 := pub.publishFull()
	if s3.Delta() != nil {
		t.Fatal("ForceFull publication must not carry a delta")
	}
	ans, kind, err = c.getOrCompute([]byte("k"), s3, "", query.Query{}, answerAt(3, &calls))
	if err != nil || kind != hitMiss || calls != 2 || ans.Answered != 3 {
		t.Fatalf("after full swap: kind=%v calls=%d ans=%+v err=%v", kind, calls, ans, err)
	}
}

// TestCacheIntersectingDeltaRecomputes: a delta that does intersect the
// entry's route signature must force recomputation even though a chain
// exists — revalidation is allowed to be conservative, never to lie.
func TestCacheIntersectingDeltaRecomputes(t *testing.T) {
	pub := newTestPub()
	c := newCache(64)
	s1 := pub.publish()
	calls := 0
	sig := core.Sig{0b1010}
	if _, _, err := c.getOrCompute([]byte("k"), s1, "", query.Query{},
		func(snap *core.RoutingSnapshot, _ graph.PeerID, _ query.Query) (Answer, core.Sig, error) {
			calls++
			return Answer{Epoch: snap.Epoch()}, sig, nil
		}); err != nil {
		t.Fatal(err)
	}
	s2 := pub.publishFull() // no chain: DeltaSince fails, sig irrelevant
	if _, kind, _ := c.getOrCompute([]byte("k"), s2, "", query.Query{}, answerAt(9, &calls)); kind != hitMiss || calls != 2 {
		t.Fatalf("unprovable entry served stale: kind=%v calls=%d", kind, calls)
	}
}

// TestCacheStalePreferentialEviction pins the satellite-3 guarantee: under a
// budget squeeze, entries still bound to a superseded epoch are evicted
// before any entry bound to the live epoch — a just-rebound hot entry in one
// shard can no longer be sacrificed while dead-epoch entries survive in
// another.
func TestCacheStalePreferentialEviction(t *testing.T) {
	const size = 8
	pub := newTestPub()
	c := newCache(size)
	s1 := pub.publish()
	for i := 0; i < size; i++ {
		key := []byte(fmt.Sprintf("old-%d", i))
		if _, _, err := c.getOrCompute(key, s1, "", query.Query{}, answerAt(i, nil)); err != nil {
			t.Fatal(err)
		}
	}

	// Full swap: every resident entry is now bound to a dead epoch.
	s2 := pub.publishFull()
	// Re-touch half of them at the new epoch (recomputed in place, bound to
	// s2), then insert new keys to squeeze the budget.
	for i := 0; i < size/2; i++ {
		key := []byte(fmt.Sprintf("old-%d", i))
		if _, kind, err := c.getOrCompute(key, s2, "", query.Query{}, answerAt(i, nil)); err != nil || kind != hitMiss {
			t.Fatalf("re-touch %d: kind=%v err=%v", i, kind, err)
		}
	}
	for i := 0; i < size/2; i++ {
		key := []byte(fmt.Sprintf("new-%d", i))
		if _, _, err := c.getOrCompute(key, s2, "", query.Query{}, answerAt(100+i, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.len(); got != size {
		t.Fatalf("after squeeze: %d resident, want %d", got, size)
	}
	// Every current-epoch entry must have survived; the squeeze can only
	// have taken the stale half.
	for i := 0; i < size/2; i++ {
		for _, pfx := range []string{"old", "new"} {
			key := []byte(fmt.Sprintf("%s-%d", pfx, i))
			_, kind, err := c.getOrCompute(key, s2, "", query.Query{},
				func(*core.RoutingSnapshot, graph.PeerID, query.Query) (Answer, core.Sig, error) {
					t.Errorf("current-epoch entry %s evicted while stale entries existed", key)
					return Answer{}, core.Sig{}, nil
				})
			if err != nil || kind != hitFresh {
				t.Fatalf("%s: kind=%v err=%v", key, kind, err)
			}
		}
	}
	for i := size / 2; i < size; i++ {
		key := []byte(fmt.Sprintf("old-%d", i))
		if _, kind, _ := c.getOrCompute(key, s2, "", query.Query{}, answerAt(0, nil)); kind != hitMiss {
			t.Errorf("stale entry %s survived the squeeze bound to a dead epoch", key)
		}
	}
}

// TestCacheHitZeroAlloc: the hit path — shard hash, lookup, LRU touch, epoch
// check — must not allocate; an allocation per lookup would dominate the
// µs-scale serving hot path.
func TestCacheHitZeroAlloc(t *testing.T) {
	c := newCache(64)
	snap := newTestPub().publish()
	if _, _, err := c.getOrCompute([]byte("hot"), snap, "", query.Query{}, answerAt(1, nil)); err != nil {
		t.Fatal(err)
	}
	key := []byte("hot")
	allocs := testing.AllocsPerRun(200, func() {
		ans, kind, err := c.getOrCompute(key, snap, "", query.Query{}, nil)
		if err != nil || kind != hitFresh || ans.Answered != 1 {
			t.Fatalf("hit path broke: %+v %v %v", ans, kind, err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache hit allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkCacheHit measures the hot lookup (run with -benchmem: 0 allocs/op).
func BenchmarkCacheHit(b *testing.B) {
	c := newCache(1024)
	snap := newTestPub().publish()
	if _, _, err := c.getOrCompute([]byte("hot"), snap, "", query.Query{}, answerAt(1, nil)); err != nil {
		b.Fatal(err)
	}
	key := []byte("hot")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, kind, _ := c.getOrCompute(key, snap, "", query.Query{}, nil); kind != hitFresh {
			b.Fatal("miss on the hit benchmark")
		}
	}
}

// TestCacheRevalidationCountedOnce: requests that all prove one entry valid
// across a delta publication race to rebind it, and exactly one of them may
// count the revalidation — the others are served an entry that is already
// rebound, which is a hit. The hook parks every request between its
// DeltaSince proof and the rebinding CAS until all of them have arrived, so
// the race happens the same way on every run.
func TestCacheRevalidationCountedOnce(t *testing.T) {
	const requests = 8
	pub := newTestPub()
	c := newCache(64)
	if _, _, err := c.getOrCompute([]byte("k"), pub.publish(), "", query.Query{}, answerAt(1, nil)); err != nil {
		t.Fatal(err)
	}
	s2 := pub.publish()

	var parked sync.WaitGroup
	parked.Add(requests)
	revalidateHook = func() {
		parked.Done()
		parked.Wait()
	}
	defer func() { revalidateHook = nil }()

	kinds := make(chan hitKind, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, kind, err := c.getOrCompute([]byte("k"), s2, "", query.Query{},
				func(*core.RoutingSnapshot, graph.PeerID, query.Query) (Answer, core.Sig, error) {
					t.Error("a revalidatable entry was recomputed")
					return Answer{}, core.Sig{}, nil
				})
			if err != nil || ans.Answered != 1 {
				t.Errorf("revalidating request: ans %+v err %v", ans, err)
			}
			kinds <- kind
		}()
	}
	wg.Wait()
	close(kinds)
	count := map[hitKind]int{}
	for k := range kinds {
		count[k]++
	}
	if count[hitRevalidated] != 1 || count[hitFresh] != requests-1 {
		t.Errorf("%d concurrent revalidations: %d counted as revalidated, %d as hits; want 1 and %d",
			requests, count[hitRevalidated], count[hitFresh], requests-1)
	}
}

// TestCacheStaleSweepFindsStaleAnywhere: an answer computed against an older
// snapshot than the live one (a request that loaded its snapshot before a
// publication) is inserted at the front of its shard, yet it is stale. The
// stale sweep must find it there — and evict it rather than the least recent
// live entry — and once no stale entry is left the sweep must fall back to
// plain LRU order.
func TestCacheStaleSweepFindsStaleAnywhere(t *testing.T) {
	const size = 4
	pub := newTestPub()
	c := newCache(size)
	s1 := pub.publish()
	s2 := pub.publishFull()
	keys := skewedKeys(size + 2) // one shard, so its LRU order is the cache's
	put := func(k string, snap *core.RoutingSnapshot) {
		t.Helper()
		if _, _, err := c.getOrCompute([]byte(k), snap, "", query.Query{}, answerAt(0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	resident := func(k string) bool {
		s := &c.shards[shardIndex([]byte(k))]
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.entries[k]
		return ok
	}
	for _, k := range keys[:size-1] {
		put(k, s2)
	}
	put(keys[size-1], s1) // stale, and the most recent entry
	put(keys[size], s2)   // over budget at the live epoch
	if resident(keys[size-1]) {
		t.Error("the stale entry survived an over-budget insertion")
	}
	for _, k := range append(keys[:size-1:size-1], keys[size]) {
		if !resident(k) {
			t.Errorf("live entry %s evicted while a stale entry was resident", k)
		}
	}
	put(keys[size+1], s2) // nothing stale left: least recent goes
	if resident(keys[0]) || !resident(keys[1]) || !resident(keys[size+1]) {
		t.Error("with no stale entry left, eviction did not take the least recent entry")
	}
}
