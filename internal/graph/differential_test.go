package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The order contract (TESTING.md §Enumeration order): Cycles and ParallelPaths
// return the same slices the map-and-string walk of oracle_test.go returns —
// the same structures, each with the same start peer and orientation, in the
// same order — and the …Through variants return exactly the subsequence of
// them that uses a changed edge. Everything is compared with reflect.DeepEqual
// on whole slices, so a swapped pair of cycles or a rotated one is a failure.

const differentialSeeds = 50

// family is one topology generator of the differential; it draws an
// undirected or a directed instance from rng.
type family struct {
	name string
	gen  func(directed bool, rng *rand.Rand) *Graph
}

var families = []family{
	{"ba", func(directed bool, rng *rand.Rand) *Graph {
		g, err := BarabasiAlbert(24+rng.Intn(8), 2, directed, rng)
		if err != nil {
			panic(err)
		}
		return g
	}},
	{"er", func(directed bool, rng *rand.Rand) *Graph {
		g, err := ErdosRenyi(9+rng.Intn(5), 0.25, directed, rng)
		if err != nil {
			panic(err)
		}
		return g
	}},
	{"ws", func(directed bool, rng *rand.Rand) *Graph {
		g, err := WattsStrogatz(16+rng.Intn(6), 4, 0.2, rng)
		if err != nil {
			panic(err)
		}
		return remake(g, directed, rng)
	}},
	{"ring-chords", func(directed bool, rng *rand.Rand) *Graph {
		n := 8 + rng.Intn(6)
		g := newGraph(directed)
		for i := 0; i < n; i++ {
			g.MustAddEdge(EdgeID(fmt.Sprintf("r%d", i)), peerName(i), peerName((i+1)%n))
		}
		for c := 0; c < 5; c++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.MustAddEdge(EdgeID(fmt.Sprintf("c%d", c)), peerName(a), peerName(b))
			}
		}
		return g
	}},
	// Parallel and anti-parallel edges between few peers: 2-cycles, pairs of
	// single edges, and many structures over one peer set.
	{"multigraph", func(directed bool, rng *rand.Rand) *Graph {
		n := 5 + rng.Intn(3)
		g := newGraph(directed)
		for i := 0; i < 2*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			g.MustAddEdge(EdgeID(fmt.Sprintf("e%d", i)), peerName(a), peerName(b))
			switch rng.Intn(4) {
			case 0:
				g.MustAddEdge(EdgeID(fmt.Sprintf("e%d'", i)), peerName(a), peerName(b))
			case 1:
				g.MustAddEdge(EdgeID(fmt.Sprintf("e%d~", i)), peerName(b), peerName(a))
			}
		}
		return g
	}},
}

// remake copies g's edges, in insertion order, into a graph of the given
// kind; turning an undirected graph into a directed one flips a coin for
// every edge's direction.
func remake(g *Graph, directed bool, rng *rand.Rand) *Graph {
	out := newGraph(directed)
	for _, p := range g.Peers() {
		out.AddPeer(p)
	}
	for _, e := range g.Edges() {
		if directed && !g.Directed() && rng.Intn(2) == 0 {
			e.From, e.To = e.To, e.From
		}
		out.MustAddEdge(e.ID, e.From, e.To)
	}
	return out
}

// forEachCase runs fn on every family × kind × seed instance.
func forEachCase(t *testing.T, fn func(t *testing.T, g *Graph, rng *rand.Rand)) {
	for _, f := range families {
		for _, directed := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/directed=%v", f.name, directed), func(t *testing.T) {
				for seed := int64(0); seed < differentialSeeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					fn(t, f.gen(directed, rng), rng)
					if t.Failed() {
						t.Fatalf("seed %d", seed)
					}
				}
			})
		}
	}
}

// check compares, for maxLen 2–5, both enumerators with their oracles and —
// given an rng — the …Through variants with the oracle lists filtered by a
// random changed set of 1–8 edges (repeats allowed, one unknown ID).
func check(t *testing.T, g *Graph, rng *rand.Rand) {
	t.Helper()
	var changed []EdgeID
	set := make(map[EdgeID]bool)
	if edges := g.Edges(); rng != nil && len(edges) > 0 {
		changed = append(changed, "no-such-edge")
		for i, k := 0, 1+rng.Intn(8); i < k; i++ {
			id := edges[rng.Intn(len(edges))].ID
			changed = append(changed, id)
			set[id] = true
		}
	}
	for maxLen := 2; maxLen <= 5; maxLen++ {
		wantCycles, wantPairs := g.oracleCycles(maxLen), g.oracleParallelPaths(maxLen)
		if got := g.Cycles(maxLen); !reflect.DeepEqual(got, wantCycles) {
			t.Errorf("Cycles(%d):\n got %v\nwant %v", maxLen, got, wantCycles)
		}
		if got := g.ParallelPaths(maxLen); !reflect.DeepEqual(got, wantPairs) {
			t.Errorf("ParallelPaths(%d):\n got %v\nwant %v", maxLen, got, wantPairs)
		}
		if changed == nil {
			continue
		}
		var throughCycles []Cycle
		for _, c := range wantCycles {
			if touches(set, c.Edges()) {
				throughCycles = append(throughCycles, c)
			}
		}
		if got := g.CyclesThrough(maxLen, changed...); !reflect.DeepEqual(got, throughCycles) {
			t.Errorf("CyclesThrough(%d, %v):\n got %v\nwant %v", maxLen, changed, got, throughCycles)
		}
		var throughPairs []ParallelPair
		for _, p := range wantPairs {
			if touches(set, p.Edges()) {
				throughPairs = append(throughPairs, p)
			}
		}
		if got := g.ParallelPathsThrough(maxLen, changed...); !reflect.DeepEqual(got, throughPairs) {
			t.Errorf("ParallelPathsThrough(%d, %v):\n got %v\nwant %v", maxLen, changed, got, throughPairs)
		}
	}
}

func touches(set map[EdgeID]bool, ids []EdgeID) bool {
	for _, id := range ids {
		if set[id] {
			return true
		}
	}
	return false
}

// TestEnumeratorDifferential: index ≡ oracle, slice for slice.
func TestEnumeratorDifferential(t *testing.T) {
	forEachCase(t, func(t *testing.T, g *Graph, _ *rand.Rand) { check(t, g, nil) })
}

// TestThroughDifferential: …Through(changed) ≡ filter(full), before and after
// random mutations — every one of which must drop the compiled index.
func TestThroughDifferential(t *testing.T) {
	forEachCase(t, func(t *testing.T, g *Graph, rng *rand.Rand) {
		check(t, g, rng)
		for op := 0; op < 4; op++ {
			peers, edges := g.Peers(), g.Edges()
			switch k := rng.Intn(4); {
			case k == 0 && len(edges) > 0:
				g.RemoveEdge(edges[rng.Intn(len(edges))].ID)
			case k == 1 && len(peers) > 3:
				g.RemovePeer(peers[rng.Intn(len(peers))])
			default:
				// A fresh peer now and then, so ranks shift too.
				a, b := peers[rng.Intn(len(peers))], PeerID(fmt.Sprintf("n%d", op))
				if rng.Intn(3) > 0 {
					b = peers[rng.Intn(len(peers))]
				}
				if a != b {
					g.MustAddEdge(EdgeID(fmt.Sprintf("x%d", op)), a, b)
				}
			}
			check(t, g, rng)
		}
	})
}

// TestRemovePeerInsertionOrder: the incident edges come back in the order
// they were added, whichever adjacency list they were gathered from.
func TestRemovePeerInsertionOrder(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := newGraph(directed)
		g.MustAddEdge("z", "hub", "a")
		g.MustAddEdge("y", "b", "hub")
		g.MustAddEdge("k", "a", "b")
		g.MustAddEdge("x", "hub", "c")
		g.MustAddEdge("w", "c", "hub")
		g.RemoveEdge("y")
		g.MustAddEdge("y", "b", "hub") // re-added: now the newest
		want := []EdgeID{"z", "x", "w", "y"}
		if got := g.RemovePeer("hub"); !reflect.DeepEqual(got, want) {
			t.Errorf("directed=%v: RemovePeer = %v, want %v", directed, got, want)
		}
		if g.NumEdges() != 1 {
			t.Errorf("directed=%v: %d edges left, want 1", directed, g.NumEdges())
		}
	}
}

// TestConcurrentEnumeration: enumerations that start together on a graph
// whose index a mutation has just dropped all build or share it without a
// race and agree with the oracle (run under -race in CI).
func TestConcurrentEnumeration(t *testing.T) {
	g, err := BarabasiAlbert(60, 2, true, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		g.MustAddEdge(EdgeID(fmt.Sprintf("x%d", round)), peerName(round), peerName(59-round))
		wantCycles, wantPairs := g.oracleCycles(4), g.oracleParallelPaths(3)
		changed := EdgeID(fmt.Sprintf("x%d", round))
		wantThrough := g.CyclesThrough(4, changed)
		g.RemoveEdge("m0") // drop the index the line above built
		g.MustAddEdge("m0", "p0", "p1")
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				switch w % 3 {
				case 0:
					if got := g.Cycles(4); !reflect.DeepEqual(got, wantCycles) {
						t.Errorf("round %d: concurrent Cycles differs from oracle", round)
					}
				case 1:
					if got := g.ParallelPaths(3); !reflect.DeepEqual(got, wantPairs) {
						t.Errorf("round %d: concurrent ParallelPaths differs from oracle", round)
					}
				default:
					if got := g.CyclesThrough(4, changed); !reflect.DeepEqual(got, wantThrough) {
						t.Errorf("round %d: concurrent CyclesThrough differs", round)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// randomTree attaches every peer after the first to a uniformly chosen
// earlier one: n-1 edges, no cycle and (directed: child → parent) no
// parallel pair, so the enumerators visit everything and report nothing.
func randomTree(n int, directed bool) *Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	g := newGraph(directed)
	for i := 1; i < n; i++ {
		g.MustAddEdge(EdgeID(fmt.Sprintf("m%d", i)), peerName(i), peerName(rng.Intn(i)))
	}
	return g
}

// TestEnumerationAllocsConstant is the work gate: on a compiled graph an
// enumeration allocates its scratch — a fixed number of objects — and then
// nothing per peer or per visited step: a tree four times the size costs the
// same count. (The old walk allocated and sorted an adjacency per visit.)
func TestEnumerationAllocsConstant(t *testing.T) {
	run := func(n int) (cycles, through, pairs, pairsThrough float64) {
		u, d := randomTree(n, false), randomTree(n, true)
		changed := []EdgeID{"m1", "m7", "m50", "m99", "m250", "m499"}
		cycles = testing.AllocsPerRun(5, func() {
			if got := u.Cycles(4); got != nil {
				t.Fatalf("tree has cycles: %v", got)
			}
		})
		through = testing.AllocsPerRun(5, func() {
			if got := u.CyclesThrough(4, changed...); got != nil {
				t.Fatalf("tree has cycles: %v", got)
			}
		})
		pairs = testing.AllocsPerRun(5, func() {
			if got := d.ParallelPaths(4); got != nil {
				t.Fatalf("tree has parallel pairs: %v", got)
			}
		})
		pairsThrough = testing.AllocsPerRun(5, func() {
			if got := d.ParallelPathsThrough(4, changed...); got != nil {
				t.Fatalf("tree has parallel pairs: %v", got)
			}
		})
		return
	}
	c1, t1, p1, q1 := run(500)
	c2, t2, p2, q2 := run(2000)
	t.Logf("allocs at 500 / 2000 peers: Cycles %v/%v, CyclesThrough %v/%v, ParallelPaths %v/%v, ParallelPathsThrough %v/%v",
		c1, c2, t1, t2, p1, p2, q1, q2)
	if c1 != c2 || t1 != t2 {
		t.Errorf("cycle enumeration allocations grow with the graph: Cycles %v → %v, CyclesThrough %v → %v", c1, c2, t1, t2)
	}
	// The path tree of one source and the backward frontier grow by
	// doubling, so a few more objects are allowed, not one per peer.
	const slack, most = 8, 48
	if p2 > p1+slack || q2 > q1+slack || max(c2, t2, p2, q2) > most {
		t.Errorf("enumeration on a 2000-peer tree allocates too much: Cycles %v, CyclesThrough %v, ParallelPaths %v, ParallelPathsThrough %v", c2, t2, p2, q2)
	}
}

// overlay10k is the shape of the benchmark's detect_scratch overlay: 10,000
// peers, Barabási–Albert with two attachments, undirected.
func overlay10k(b *testing.B) *Graph {
	g, err := BarabasiAlbert(10000, 2, false, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	g.Cycles(2) // compile outside the timed region
	return g
}

var benchSink int

func BenchmarkCycles10k(b *testing.B) {
	g := overlay10k(b)
	b.ReportAllocs()
	for b.Loop() {
		benchSink = len(g.Cycles(4))
	}
}

// BenchmarkCyclesThrough10k: the cycles through 6 changed edges (one churn
// epoch of the closed_loop workload) of the same overlay.
func BenchmarkCyclesThrough10k(b *testing.B) {
	g := overlay10k(b)
	edges := g.Edges()
	var changed []EdgeID
	for i := 0; i < 6; i++ {
		changed = append(changed, edges[(i*3331+7)%len(edges)].ID)
	}
	b.ReportAllocs()
	for b.Loop() {
		benchSink = len(g.CyclesThrough(4, changed...))
	}
}
