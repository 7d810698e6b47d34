package serve_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/xmldb"
)

// These are the torn-read tests of the serving plane: a writer thread keeps
// churning the network, re-running detection and republishing snapshots
// while many reader goroutines serve queries. Every answer must be
// internally consistent with exactly one epoch — its record set must equal
// the answer a quiescent network in that epoch's state produces, never a
// blend of two states. Run under -race in CI (and -count=20 in the deflake
// job).

// ringNet builds a directed identity ring p0→p1→…→p{n-1}→p0 over attributes
// a, b with a one-record store per peer.
func ringNet(t *testing.T, n int) *core.Network {
	t.Helper()
	net := core.NewNetwork(true)
	for i := 0; i < n; i++ {
		p := graph.PeerID(fmt.Sprintf("p%d", i))
		peer := net.MustAddPeer(p, schema.MustNew("S"+string(p), "a", "b"))
		st, err := xmldb.NewStore(peer.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(xmldb.Record{"a": []string{"hit " + string(p)}, "b": []string{"bee " + string(p)}}); err != nil {
			t.Fatal(err)
		}
		if err := peer.AttachStore(st); err != nil {
			t.Fatal(err)
		}
	}
	id := map[schema.Attribute]schema.Attribute{"a": "a", "b": "b"}
	for i := 0; i < n; i++ {
		net.MustAddMapping(graph.EdgeID(fmt.Sprintf("m%d", i)),
			graph.PeerID(fmt.Sprintf("p%d", i)), graph.PeerID(fmt.Sprintf("p%d", (i+1)%n)), id)
	}
	return net
}

const ringSize = 6

var (
	idPairs   = map[schema.Attribute]schema.Attribute{"a": "a", "b": "b"}
	swapPairs = map[schema.Attribute]schema.Attribute{"a": "b", "b": "a"}
)

// setRingState puts mapping m0 into the clean (identity) or corrupted
// (swapped) revision, folds the change into the maintained evidence and
// re-runs detection. Deterministic: the same state always lands on the same
// posteriors.
func setRingState(t *testing.T, net *core.Network, corrupted bool) core.DetectResult {
	t.Helper()
	pairs := idPairs
	if corrupted {
		pairs = swapPairs
	}
	net.RemoveMapping("m0")
	if _, err := net.AddMapping("m0", "p0", "p1", pairs); err != nil {
		t.Fatal(err)
	}
	cfg := core.DiscoverConfig{Attrs: []schema.Attribute{"a"}, MaxLen: ringSize}
	if _, err := net.DiscoverIncremental(cfg, "m0"); err != nil {
		t.Fatal(err)
	}
	net.ResetMessages()
	det, err := net.RunDetection(core.DetectOptions{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// raceQueries returns the fixed query set the readers hammer.
func raceQueries(t *testing.T, net *core.Network) []struct {
	origin graph.PeerID
	q      query.Query
} {
	t.Helper()
	var out []struct {
		origin graph.PeerID
		q      query.Query
	}
	for i := 0; i < ringSize; i++ {
		p, _ := net.Peer(graph.PeerID(fmt.Sprintf("p%d", i)))
		out = append(out,
			struct {
				origin graph.PeerID
				q      query.Query
			}{p.ID(), query.MustNew(p.Schema(), query.Op{Kind: query.Project, Attr: "a"})},
			struct {
				origin graph.PeerID
				q      query.Query
			}{p.ID(), query.MustNew(p.Schema(),
				query.Op{Kind: query.Select, Attr: "a", Literal: "hit"},
				query.Op{Kind: query.Project, Attr: "a"})},
		)
	}
	return out
}

// TestConcurrentSnapshotSwapServing is the full torn-read differential: a
// publisher thread alternates the ring between a clean and a corrupted
// revision of m0 — churn, incremental discovery, detection, publish — while
// 32 goroutines serve the fixed query set with caching disabled (every
// answer is a fresh snapshot walk). Each answer's canonical record set must
// byte-match the answer precomputed serially for the state its epoch was
// published under.
func TestConcurrentSnapshotSwapServing(t *testing.T) {
	net := ringNet(t, ringSize)
	if _, err := net.Discover(core.DiscoverConfig{Attrs: []schema.Attribute{"a"}, MaxLen: ringSize}); err != nil {
		t.Fatal(err)
	}
	queries := raceQueries(t, net)
	key := func(origin graph.PeerID, q query.Query) string { return string(origin) + "|" + q.String() }

	// Serially precompute the expected fingerprint of every query under
	// both states. corrupted=false first: epoch parity starts clean.
	expected := [2]map[string]string{make(map[string]string), make(map[string]string)}
	serial := serve.New(net, serve.Options{CacheSize: -1})
	for state := 0; state < 2; state++ {
		det := setRingState(t, net, state == 1)
		net.PublishSnapshot(det, core.SnapshotOptions{})
		for _, qq := range queries {
			ans, err := serial.Answer(qq.origin, qq.q)
			if err != nil {
				t.Fatal(err)
			}
			expected[state][key(qq.origin, qq.q)] = ans.Fingerprint()
		}
	}
	// The two states must answer differently somewhere, or the test
	// couldn't see a torn read.
	differ := false
	for k := range expected[0] {
		if expected[0][k] != expected[1][k] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("clean and corrupted states produce identical answers; the differential is vacuous")
	}

	// epochState records, before each publication, which state the epoch
	// about to be published serves. Readers resolve their answer's epoch
	// through it.
	var epochState sync.Map
	// Re-arm: two publications happened during precompute (epochs 1, 2).
	epochState.Store(uint64(1), 0)
	epochState.Store(uint64(2), 1)
	nextEpoch := uint64(3)

	const (
		readers = 32
		flips   = 10
	)
	srv := serve.New(net, serve.Options{CacheSize: -1})
	var stop atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				qq := queries[(r+i)%len(queries)]
				ans, err := srv.Answer(qq.origin, qq.q)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				stateVal, ok := epochState.Load(ans.Epoch)
				if !ok {
					t.Errorf("reader %d: answer from unknown epoch %d", r, ans.Epoch)
					return
				}
				if got, want := ans.Fingerprint(), expected[stateVal.(int)][key(qq.origin, qq.q)]; got != want {
					t.Errorf("reader %d: torn read: epoch %d (state %d) answer %s, want %s",
						r, ans.Epoch, stateVal.(int), got, want)
					return
				}
				served.Add(1)
			}
		}(r)
	}

	// Publisher: keep flipping states under the readers, then let the
	// readers catch up on the final snapshot so the run always checks a
	// healthy number of answers.
	for f := 0; f < flips; f++ {
		state := f % 2
		det := setRingState(t, net, state == 1)
		epochState.Store(nextEpoch, state)
		nextEpoch++
		net.PublishSnapshot(det, core.SnapshotOptions{})
	}
	for served.Load() < 2000 && !t.Failed() {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
}

// TestConcurrentDeltaSwapServing is the delta-publication variant of the
// torn-read differential: the publisher alternates mapping m0 between a
// passing (0.9) and a θ-blocked (0.2) posterior and republishes — as deltas,
// since the structure never changes, with a periodic ForceFull mixed in —
// while 32 readers serve through a *caching* server. Cached entries whose
// route signatures avoid m0 are revalidated across the swaps instead of
// recomputed, so this exercises the rebind path under concurrent epoch
// movement. Every answer must still byte-match the answer a quiescent
// network in its epoch's state produces. Runs under -race in CI.
func TestConcurrentDeltaSwapServing(t *testing.T) {
	// A line p0→p1→…→p5: drop the ring's wrap edge so queries originating
	// at p1..p5 never examine m0 and stay revalidatable when it flips.
	net := ringNet(t, ringSize)
	net.RemoveMapping(graph.EdgeID(fmt.Sprintf("m%d", ringSize-1)))
	if _, err := net.Discover(core.DiscoverConfig{Attrs: []schema.Attribute{"a"}, MaxLen: ringSize}); err != nil {
		t.Fatal(err)
	}
	queries := raceQueries(t, net)
	key := func(origin graph.PeerID, q query.Query) string { return string(origin) + "|" + q.String() }

	pass := 0.9
	statePosteriors := func(state int) core.DetectResult {
		m0 := pass
		if state == 1 {
			m0 = 0.2 // below the default θ of 0.5: m0 is blocked
		}
		post := make(map[graph.EdgeID]map[schema.Attribute]float64)
		for i := 0; i < ringSize-1; i++ {
			post[graph.EdgeID(fmt.Sprintf("m%d", i))] = map[schema.Attribute]float64{"a": pass, "b": pass}
		}
		post["m0"]["a"] = m0
		post["m0"]["b"] = m0
		return core.DetectResult{Posteriors: post}
	}

	// Serially precompute the expected fingerprint of every query under both
	// states.
	expected := [2]map[string]string{make(map[string]string), make(map[string]string)}
	serial := serve.New(net, serve.Options{CacheSize: -1})
	for state := 0; state < 2; state++ {
		net.PublishSnapshot(statePosteriors(state), core.SnapshotOptions{})
		for _, qq := range queries {
			ans, err := serial.Answer(qq.origin, qq.q)
			if err != nil {
				t.Fatal(err)
			}
			expected[state][key(qq.origin, qq.q)] = ans.Fingerprint()
		}
	}
	differ := false
	for k := range expected[0] {
		if expected[0][k] != expected[1][k] {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("blocked and passing states produce identical answers; the differential is vacuous")
	}

	var epochState sync.Map
	epochState.Store(uint64(1), 0)
	epochState.Store(uint64(2), 1)
	nextEpoch := uint64(3)

	const (
		readers = 32
		flips   = 12
	)
	srv := serve.New(net, serve.Options{})
	var stop atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				qq := queries[(r+i)%len(queries)]
				ans, err := srv.Answer(qq.origin, qq.q)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				stateVal, ok := epochState.Load(ans.Epoch)
				if !ok {
					t.Errorf("reader %d: answer from unknown epoch %d", r, ans.Epoch)
					return
				}
				if got, want := ans.Fingerprint(), expected[stateVal.(int)][key(qq.origin, qq.q)]; got != want {
					t.Errorf("reader %d: torn read: epoch %d (state %d) answer %s, want %s",
						r, ans.Epoch, stateVal.(int), got, want)
					return
				}
				served.Add(1)
			}
		}(r)
	}

	// Publisher: flip states under the readers, letting each epoch serve a
	// healthy batch so cached entries from older epochs are re-asked (and,
	// when their routes avoid m0, revalidated) before the next swap.
	for f := 0; f < flips && !t.Failed(); f++ {
		state := f % 2
		opts := core.SnapshotOptions{ForceFull: f%5 == 4}
		epochState.Store(nextEpoch, state)
		nextEpoch++
		snap := net.PublishSnapshot(statePosteriors(state), opts)
		if !opts.ForceFull && snap.Delta() == nil {
			t.Errorf("flip %d: publication on an untouched structure was not a delta", f)
		}
		target := served.Load() + 200
		for served.Load() < target && !t.Failed() {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := srv.Stats(); st.Revalidated == 0 {
		t.Error("no answer was revalidated across the delta swaps; the rebind path went unexercised")
	}
}

// TestConcurrentServeDuringDetection serves queries while RunDetection
// itself publishes a snapshot after every BP round (from its
// DetectOptions.Trace hook). Detection rounds are deterministic, so two
// answers for the same (epoch, query) must always be identical even with the
// cache disabled — any difference is a torn snapshot. A second cached server
// runs alongside to exercise the coalescing path under the same churn.
func TestConcurrentServeDuringDetection(t *testing.T) {
	net := ringNet(t, ringSize)
	if _, err := net.Discover(core.DiscoverConfig{Attrs: []schema.Attribute{"a"}, MaxLen: ringSize}); err != nil {
		t.Fatal(err)
	}
	queries := raceQueries(t, net)
	key := func(epoch uint64, origin graph.PeerID, q query.Query) string {
		return fmt.Sprintf("%d|%s|%s", epoch, origin, q)
	}

	uncached := serve.New(net, serve.Options{CacheSize: -1})
	cached := serve.New(net, serve.Options{})
	var seen sync.Map // key → fingerprint
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 32; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			srv := uncached
			if r%2 == 1 {
				srv = cached
			}
			for i := 0; !stop.Load(); i++ {
				qq := queries[(r+i)%len(queries)]
				ans, err := srv.Answer(qq.origin, qq.q)
				if err != nil {
					// Before the first round's publication there is no
					// snapshot yet.
					continue
				}
				k := key(ans.Epoch, qq.origin, qq.q)
				fp := ans.Fingerprint()
				if prev, loaded := seen.LoadOrStore(k, fp); loaded && prev.(string) != fp {
					t.Errorf("reader %d: two answers for %s: %s vs %s", r, k, fp, prev)
					return
				}
			}
		}(r)
	}

	for round := 0; round < 4; round++ {
		net.ResetMessages()
		if _, err := net.RunDetection(core.DetectOptions{
			Tolerance: 1e-9,
			Trace: func(_ int, p map[graph.EdgeID]map[schema.Attribute]float64) {
				net.PublishSnapshot(core.DetectResult{Posteriors: p}, core.SnapshotOptions{})
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
