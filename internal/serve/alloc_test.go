package serve_test

import (
	"testing"

	"repro/internal/query"
	"repro/internal/serve"
)

// TestAnswerHitZeroAlloc pins the full cache-hit path of Server.Answer —
// snapshot load, key rendering, shard hash, lookup, epoch check, counter
// bumps — at zero allocations per query. The old fmt.Sprintf key built one
// garbage string per hit, which at millions of queries per epoch dominated
// the serving profile.
func TestAnswerHitZeroAlloc(t *testing.T) {
	n, _ := lineNet(t)
	srv := serve.New(n, serve.Options{})
	q := projA(t, n, "p1")
	if _, err := srv.Answer("p1", q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := srv.Answer("p1", q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Answer cache hit allocates %.1f times per op, want 0", allocs)
	}
	st := srv.Stats()
	if st.CacheHits == 0 || st.Computed != 1 {
		t.Errorf("hit loop did not stay on the cache: %+v", st)
	}
}

// BenchmarkAnswerHit measures the end-to-end cache-hit cost of Answer (run
// with -benchmem: 0 allocs/op).
func BenchmarkAnswerHit(b *testing.B) {
	n, _ := lineNet(b)
	srv := serve.New(n, serve.Options{})
	q := projA(b, n, "p1")
	if _, err := srv.Answer("p1", q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Answer("p1", q); err != nil {
			b.Fatal(err)
		}
	}
}

// missServer returns a server whose one-entry cache turns every request of
// an alternation between the two returned queries into a cold miss: route,
// execute at three stores, merge, insert, and evict the other key.
func missServer(t testing.TB) (*serve.Server, [2]query.Query) {
	n, _ := lineNet(t)
	p1, _ := n.Peer("p1")
	qs := [2]query.Query{
		projA(t, n, "p1"),
		query.MustNew(p1.Schema(), query.Op{Kind: query.Select, Attr: "a", Literal: "HIT"},
			query.Op{Kind: query.Project, Attr: "b"}),
	}
	return serve.New(n, serve.Options{CacheSize: 1}), qs
}

// TestAnswerMissAllocs pins the allocations of a pair of cold misses (a
// projection answered by three peers and a selection answered by all three
// too): the walk, its visited set (two allocations, made because the walk
// leaves the origin), the rewritten ops and Via chains, the result records,
// the merged set, the fingerprint and the cache entries. The bound is the
// count the miss path reached when execution and the canonical merge stopped
// building per-record maps and strings (79 per miss before); a new
// allocation site on the miss path fails here before it shows as throughput.
func TestAnswerMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the merge's scratch buffers at random")
	}
	const bound = 53
	srv, qs := missServer(t)
	allocs := testing.AllocsPerRun(200, func() {
		for _, q := range qs {
			if _, err := srv.Answer("p1", q); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > bound {
		t.Errorf("two cold misses allocate %.1f times, want at most %d", allocs, bound)
	}
	if st := srv.Stats(); st.CacheHits != 0 || st.Revalidated != 0 {
		t.Errorf("miss loop hit the cache: %+v", st)
	}
}

// BenchmarkAnswerMiss measures the end-to-end cost of a cold miss (run with
// -benchmem for its allocations).
func BenchmarkAnswerMiss(b *testing.B) {
	srv, qs := missServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Answer("p1", qs[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}
