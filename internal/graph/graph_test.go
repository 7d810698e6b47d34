package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fig5 builds the directed four-peer network of Figure 5: six mappings
// m12, m21, m23, m24, m34, m41.
func fig5(t testing.TB) *Graph {
	g := NewDirected()
	type e struct {
		id       EdgeID
		from, to PeerID
	}
	for _, x := range []e{
		{"m12", "p1", "p2"},
		{"m21", "p2", "p1"},
		{"m23", "p2", "p3"},
		{"m24", "p2", "p4"},
		{"m34", "p3", "p4"},
		{"m41", "p4", "p1"},
	} {
		if err := g.AddEdge(x.id, x.from, x.to); err != nil {
			t.Fatalf("AddEdge(%v): %v", x, err)
		}
	}
	return g
}

// fig4 builds the undirected four-peer network of Figure 4: five mappings.
func fig4(t testing.TB) *Graph {
	g := NewUndirected()
	type e struct {
		id       EdgeID
		from, to PeerID
	}
	for _, x := range []e{
		{"m12", "p1", "p2"},
		{"m23", "p2", "p3"},
		{"m34", "p3", "p4"},
		{"m41", "p4", "p1"},
		{"m24", "p2", "p4"},
	} {
		if err := g.AddEdge(x.id, x.from, x.to); err != nil {
			t.Fatalf("AddEdge(%v): %v", x, err)
		}
	}
	return g
}

func cycleSigs(cs []Cycle) map[string]bool {
	out := make(map[string]bool, len(cs))
	for _, c := range cs {
		out[c.Signature()] = true
	}
	return out
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewDirected()
	if err := g.AddEdge("", "a", "b"); err == nil {
		t.Error("empty id: want error")
	}
	if err := g.AddEdge("e", "a", "a"); err == nil {
		t.Error("self loop: want error")
	}
	if err := g.AddEdge("e", "a", "b"); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge("e", "b", "a"); err == nil {
		t.Error("duplicate id: want error")
	}
}

func TestBasicAccessors(t *testing.T) {
	g := fig5(t)
	if !g.Directed() {
		t.Error("Directed = false")
	}
	if g.NumPeers() != 4 || g.NumEdges() != 6 {
		t.Errorf("NumPeers,NumEdges = %d,%d want 4,6", g.NumPeers(), g.NumEdges())
	}
	if e, ok := g.Edge("m24"); !ok || e.From != "p2" || e.To != "p4" {
		t.Errorf("Edge(m24) = %v,%v", e, ok)
	}
	if _, ok := g.Edge("zzz"); ok {
		t.Error("Edge(zzz) should be absent")
	}
	out := g.Outgoing("p2")
	if len(out) != 3 {
		t.Errorf("Outgoing(p2) = %v, want 3 edges", out)
	}
	if !g.HasPeer("p1") || g.HasPeer("p9") {
		t.Error("HasPeer wrong")
	}
}

func TestUndirectedCyclesFig4(t *testing.T) {
	g := fig4(t)
	cycles := g.Cycles(5)
	// §3.2.1 expects exactly the three cycles f1, f2, f3.
	sigs := cycleSigs(cycles)
	want := []string{
		"cyc:m12|m23|m34|m41",
		"cyc:m12|m24|m41",
		"cyc:m23|m24|m34",
	}
	if len(cycles) != len(want) {
		t.Fatalf("got %d cycles (%v), want %d", len(cycles), cycles, len(want))
	}
	for _, w := range want {
		if !sigs[w] {
			t.Errorf("missing cycle %s; got %v", w, cycles)
		}
	}
}

func TestDirectedCyclesFig5(t *testing.T) {
	g := fig5(t)
	cycles := g.Cycles(6)
	sigs := cycleSigs(cycles)
	// §3.3 expects the two directed cycles f1 and f2 plus the trivial
	// two-cycle m12/m21 (present in the topology though not listed as
	// feedback in the paper's example).
	want := []string{
		"cyc:m12|m23|m34|m41",
		"cyc:m12|m24|m41",
		"cyc:m12|m21",
	}
	if len(cycles) != len(want) {
		t.Fatalf("got %d cycles (%v), want %d", len(cycles), cycles, len(want))
	}
	for _, w := range want {
		if !sigs[w] {
			t.Errorf("missing cycle %s; got %v", w, cycles)
		}
	}
}

func TestDirectedCyclesRespectDirection(t *testing.T) {
	g := NewDirected()
	g.MustAddEdge("a", "p1", "p2")
	g.MustAddEdge("b", "p1", "p2") // parallel, same direction: not a cycle
	if cycles := g.Cycles(5); len(cycles) != 0 {
		t.Errorf("directed parallel edges formed cycles: %v", cycles)
	}
	g2 := NewUndirected()
	g2.MustAddEdge("a", "p1", "p2")
	g2.MustAddEdge("b", "p1", "p2") // undirected multi-edge: 2-cycle
	if cycles := g2.Cycles(5); len(cycles) != 1 {
		t.Errorf("undirected multi-edge cycles = %v, want 1", cycles)
	}
}

func TestCyclesMaxLen(t *testing.T) {
	g := fig5(t)
	cycles := g.Cycles(3)
	sigs := cycleSigs(cycles)
	if sigs["cyc:m12|m23|m34|m41"] {
		t.Error("cycle longer than maxLen reported")
	}
	if !sigs["cyc:m12|m24|m41"] {
		t.Error("length-3 cycle missing at maxLen=3")
	}
	if got := g.Cycles(1); got != nil {
		t.Errorf("maxLen=1 should yield nil, got %v", got)
	}
}

func TestParallelPathsFig5(t *testing.T) {
	g := fig5(t)
	pairs := g.ParallelPaths(3)
	sigs := make(map[string]bool)
	for _, p := range pairs {
		sigs[p.Signature()] = true
	}
	// §3.3 lists f3: m21 ‖ m24→m41, f4: m24 ‖ m23→m34 and
	// f5: m21 ‖ m23→m34→m41.
	want := []string{
		"par:p2>p1:m21||m24|m41",
		"par:p2>p4:m23|m34||m24",
		"par:p2>p1:m21||m23|m34|m41",
	}
	for _, w := range want {
		if !sigs[w] {
			t.Errorf("missing parallel pair %s; got %v", w, pairs)
		}
	}
	if len(pairs) != len(want) {
		t.Errorf("got %d pairs (%v), want %d", len(pairs), pairs, len(want))
	}
}

func TestParallelPathsUndirectedNil(t *testing.T) {
	g := fig4(t)
	if got := g.ParallelPaths(3); got != nil {
		t.Errorf("undirected ParallelPaths = %v, want nil", got)
	}
}

func TestCyclesThrough(t *testing.T) {
	g := fig5(t)
	cs := g.CyclesThrough(6, "m24")
	if len(cs) != 1 {
		t.Fatalf("CyclesThrough(m24) = %v, want 1 cycle", cs)
	}
	if cs[0].Signature() != "cyc:m12|m24|m41" {
		t.Errorf("wrong cycle: %v", cs[0])
	}
	if got := g.CyclesThrough(3, "m34"); len(got) != 0 {
		t.Errorf("CyclesThrough(m34, 3) = %v, want none", got)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := fig5(t)
	g.RemoveEdge("m24")
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges after remove = %d, want 5", g.NumEdges())
	}
	if _, ok := g.Edge("m24"); ok {
		t.Error("removed edge still present")
	}
	for _, c := range g.Cycles(6) {
		for _, s := range c.Steps {
			if s.Edge == "m24" {
				t.Error("cycle uses removed edge")
			}
		}
	}
	g.RemoveEdge("zzz") // no-op
	if g.NumEdges() != 5 {
		t.Error("removing unknown edge changed graph")
	}
}

func TestRingChain(t *testing.T) {
	r, err := Ring(5)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cycles := r.Cycles(5)
	if len(cycles) != 1 || cycles[0].Len() != 5 {
		t.Errorf("ring cycles = %v, want one 5-cycle", cycles)
	}
	c, err := Chain(4)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if got := c.Cycles(10); len(got) != 0 {
		t.Errorf("chain has cycles: %v", got)
	}
	if _, err := Ring(1); err == nil {
		t.Error("Ring(1): want error")
	}
	if _, err := Chain(1); err == nil {
		t.Error("Chain(1): want error")
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := ErdosRenyi(30, 0.2, true, rng)
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	if g.NumPeers() != 30 {
		t.Errorf("NumPeers = %d", g.NumPeers())
	}
	// Expected edges ~ 30*29*0.2 = 174; allow broad range.
	if g.NumEdges() < 100 || g.NumEdges() > 250 {
		t.Errorf("NumEdges = %d, out of plausible range", g.NumEdges())
	}
	if _, err := ErdosRenyi(1, 0.5, true, rng); err == nil {
		t.Error("n=1: want error")
	}
	if _, err := ErdosRenyi(5, 1.5, true, rng); err == nil {
		t.Error("p>1: want error")
	}
	// p=1 complete graph edge count.
	full, err := ErdosRenyi(5, 1, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumEdges() != 10 {
		t.Errorf("undirected complete K5 edges = %d, want 10", full.NumEdges())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a, _ := ErdosRenyi(20, 0.3, true, rand.New(rand.NewSource(7)))
	b, _ := ErdosRenyi(20, 0.3, true, rand.New(rand.NewSource(7)))
	if a.NumEdges() != b.NumEdges() {
		t.Error("same seed produced different graphs")
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := BarabasiAlbert(100, 2, false, rng)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	if g.NumPeers() != 100 {
		t.Errorf("NumPeers = %d", g.NumPeers())
	}
	// Seed clique K3 (3 edges) + 97 peers × 2 edges.
	if want := 3 + 97*2; g.NumEdges() != want {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// Scale-free: max degree should greatly exceed the average.
	hist := g.DegreeDistribution()
	maxDeg := 0
	for d := range hist {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if avg := g.AverageDegree(); float64(maxDeg) < 3*avg {
		t.Errorf("max degree %d not >> average %.1f; not scale-free-ish", maxDeg, avg)
	}
	if _, err := BarabasiAlbert(2, 2, false, rng); err == nil {
		t.Error("n <= attach: want error")
	}
	if _, err := BarabasiAlbert(5, 0, false, rng); err == nil {
		t.Error("attach=0: want error")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: coefficient 1.
	g := NewUndirected()
	g.MustAddEdge("a", "p1", "p2")
	g.MustAddEdge("b", "p2", "p3")
	g.MustAddEdge("c", "p3", "p1")
	if cc := g.ClusteringCoefficient(); cc != 1 {
		t.Errorf("triangle clustering = %v, want 1", cc)
	}
	// Star: coefficient 0.
	s := NewUndirected()
	s.MustAddEdge("a", "hub", "x")
	s.MustAddEdge("b", "hub", "y")
	s.MustAddEdge("c", "hub", "z")
	if cc := s.ClusteringCoefficient(); cc != 0 {
		t.Errorf("star clustering = %v, want 0", cc)
	}
	if cc := NewDirected().ClusteringCoefficient(); cc != 0 {
		t.Errorf("empty clustering = %v, want 0", cc)
	}
}

func TestStepEndpoints(t *testing.T) {
	g := fig4(t)
	s := Step{Edge: "m12", Forward: true}
	if s.From(g) != "p1" || s.To(g) != "p2" {
		t.Error("forward step endpoints wrong")
	}
	r := Step{Edge: "m12", Forward: false}
	if r.From(g) != "p2" || r.To(g) != "p1" {
		t.Error("reverse step endpoints wrong")
	}
}

func TestCycleString(t *testing.T) {
	g := fig5(t)
	cs := g.CyclesThrough(6, "m24")
	if len(cs) != 1 {
		t.Fatal("expected one cycle")
	}
	if cs[0].String() == "" {
		t.Error("empty cycle string")
	}
	pairs := g.ParallelPaths(3)
	if len(pairs) == 0 || pairs[0].String() == "" {
		t.Error("empty pair string")
	}
}

// TestCyclesAreValidProperty checks on random graphs that every reported
// cycle is truly a simple closed walk, and no duplicates are reported.
func TestCyclesAreValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g, err := ErdosRenyi(n, 0.35, true, rng)
		if err != nil {
			return false
		}
		cycles := g.Cycles(5)
		seen := make(map[string]bool)
		for _, c := range cycles {
			if c.Len() < 2 || c.Len() > 5 {
				return false
			}
			if seen[c.Signature()] {
				return false // duplicate
			}
			seen[c.Signature()] = true
			// Closed walk, consecutive steps chained, no repeated peers.
			peers := make(map[PeerID]bool)
			for i, s := range c.Steps {
				if i > 0 && s.From(g) != c.Steps[i-1].To(g) {
					return false
				}
				if peers[s.From(g)] {
					return false
				}
				peers[s.From(g)] = true
			}
			if c.Steps[len(c.Steps)-1].To(g) != c.Steps[0].From(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestParallelPathsValidProperty checks that reported pairs are genuinely
// parallel: same endpoints, edge-disjoint, internally vertex-disjoint.
func TestParallelPathsValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		g, err := ErdosRenyi(n, 0.35, true, rng)
		if err != nil {
			return false
		}
		for _, pair := range g.ParallelPaths(4) {
			for _, side := range [][]Step{pair.A, pair.B} {
				if len(side) == 0 {
					return false
				}
				if side[0].From(g) != pair.Source || side[len(side)-1].To(g) != pair.Dest {
					return false
				}
				for i := 1; i < len(side); i++ {
					if side[i].From(g) != side[i-1].To(g) {
						return false
					}
				}
			}
			if !disjointPaths(g, pair.A, pair.B) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCyclesDeterministic(t *testing.T) {
	g1 := fig5(t)
	g2 := fig5(t)
	c1 := g1.Cycles(6)
	c2 := g2.Cycles(6)
	if len(c1) != len(c2) {
		t.Fatal("nondeterministic cycle count")
	}
	for i := range c1 {
		if c1[i].Signature() != c2[i].Signature() {
			t.Error("nondeterministic cycle order")
		}
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := WattsStrogatz(100, 6, 0.1, rng)
	if err != nil {
		t.Fatalf("WattsStrogatz: %v", err)
	}
	if g.NumPeers() != 100 {
		t.Errorf("NumPeers = %d", g.NumPeers())
	}
	// Roughly n·k/2 edges (a few lost to rewiring collisions).
	if g.NumEdges() < 280 || g.NumEdges() > 300 {
		t.Errorf("NumEdges = %d, want ≈300", g.NumEdges())
	}
	// Low rewiring keeps lattice-like clustering; an ER graph of the same
	// density would sit near k/n = 0.06.
	if cc := g.ClusteringCoefficient(); cc < 0.3 {
		t.Errorf("clustering = %.3f, want ≥ 0.3", cc)
	}
	if _, err := WattsStrogatz(10, 3, 0.1, rng); err == nil {
		t.Error("odd k: want error")
	}
	if _, err := WattsStrogatz(4, 6, 0.1, rng); err == nil {
		t.Error("n <= k: want error")
	}
	if _, err := WattsStrogatz(10, 2, 2, rng); err == nil {
		t.Error("beta > 1: want error")
	}
	// beta = 0: pure lattice, fully deterministic.
	a, _ := WattsStrogatz(20, 4, 0, rng)
	b, _ := WattsStrogatz(20, 4, 0, rng)
	if a.NumEdges() != 40 || b.NumEdges() != 40 {
		t.Errorf("lattice edges = %d/%d, want 40", a.NumEdges(), b.NumEdges())
	}
}
