// Micro-benchmarks of the core machinery. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's figures are reproduced by internal/experiments' TestFig* /
// Test*Ablation assertions and printed by cmd/pdmsbench -fig; nothing here
// times them.
package pdms_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/factorgraph"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/schema"
)

// BenchmarkProbeDiscovery measures the TTL-6 probe flood on the Fig 5
// network.
func BenchmarkProbeDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := paper.Fig5Network()
		if _, err := n.DiscoverByProbes([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazySchedule measures the lazy piggybacking schedule to
// convergence on the introductory network.
func BenchmarkLazySchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := paper.IntroNetwork()
		if _, err := net.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		peers := net.Peers()
		workload := make([]core.LazyQuery, 3000)
		for j := range workload {
			p := peers[rng.Intn(len(peers))]
			workload[j] = core.LazyQuery{
				Origin: p.ID(),
				Query:  query.MustNew(p.Schema(), query.Op{Kind: query.Project, Attr: paper.Creator}),
			}
		}
		b.StartTimer()
		if _, err := net.RunLazy(workload, core.LazyOptions{Tolerance: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactInference measures brute-force exact inference on the
// 11-variable growing-cycle graph — the baseline cost that motivates the
// iterative scheme.
func BenchmarkExactInference(b *testing.B) {
	n, err := paper.GrowingCycleNetwork(6)
	if err != nil {
		b.Fatal(err)
	}
	an, err := feedback.Analyze(paper.Creator, n.Topology(), n.Resolver(), 10)
	if err != nil {
		b.Fatal(err)
	}
	fg, err := feedback.BuildFactorGraph(an, func(graph.EdgeID) float64 { return 0.8 }, paper.Delta)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fg.Exact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEliminateExact measures junction-tree-style variable elimination
// on a 40-variable low-treewidth factor graph — exact inference far beyond
// the 24-variable enumeration limit (the §7 future-work alternative).
func BenchmarkEliminateExact(b *testing.B) {
	g := factorgraph.New()
	vars := make([]*factorgraph.Var, 40)
	for i := range vars {
		vars[i] = g.MustAddVar(fmt.Sprintf("m%d", i))
		g.MustAddFactor(factorgraph.Prior{V: vars[i], P: 0.6})
	}
	for i := 0; i+2 < len(vars); i += 2 {
		c, err := factorgraph.NewCounting(
			[]*factorgraph.Var{vars[i], vars[i+1], vars[i+2]},
			[]float64{1, 0, 0.1, 0.1})
		if err != nil {
			b.Fatal(err)
		}
		g.MustAddFactor(c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ExactEliminate(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNecklacePDMS builds a directed necklace overlay — blocks of three
// peers forming disjoint 3-cycles, chained into a ring by bridge mappings —
// with a corrupt fraction of mappings erroneous on a0. Discovery is linear
// in the peer count (each block contributes one 3-cycle), which makes the
// overlay the right substrate for very large transport benchmarks.
func benchNecklacePDMS(tb testing.TB, peers int, corrupt float64) *core.Network {
	tb.Helper()
	blocks := peers / 3
	if blocks < 2 {
		tb.Fatalf("necklace needs at least 6 peers, got %d", peers)
	}
	attrs := []schema.Attribute{"a0", "a1", "a2", "a3"}
	identity := make(map[schema.Attribute]schema.Attribute, len(attrs))
	swapped := make(map[schema.Attribute]schema.Attribute, len(attrs))
	for _, a := range attrs {
		identity[a] = a
		swapped[a] = a
	}
	swapped[attrs[0]], swapped[attrs[1]] = attrs[1], attrs[0]

	rng := rand.New(rand.NewSource(7))
	net := core.NewNetwork(true)
	name := func(i int) graph.PeerID { return graph.PeerID(fmt.Sprintf("p%d", i)) }
	for i := 0; i < blocks*3; i++ {
		net.MustAddPeer(name(i), schema.MustNew(fmt.Sprintf("S%d", i), attrs...))
	}
	addMapping := func(id string, from, to graph.PeerID) {
		pairs := identity
		if rng.Float64() < corrupt {
			pairs = swapped
		}
		net.MustAddMapping(graph.EdgeID(id), from, to, pairs)
	}
	for blk := 0; blk < blocks; blk++ {
		base := 3 * blk
		for i := 0; i < 3; i++ {
			addMapping(fmt.Sprintf("m%d", base+i), name(base+i), name(base+(i+1)%3))
		}
		addMapping(fmt.Sprintf("b%d", blk), name(3*blk+2), name(3*((blk+1)%blocks)))
	}
	return net
}

// BenchmarkTransportDetectionRound times one full round of the periodic
// detection schedule — produce, marshal, cross the transport, unmarshal,
// fold, refresh, snapshot — per transport and network size, up to a
// 100k-peer overlay on the simulator at GOMAXPROCS shards (the acceptance
// workload of the transport layer; numbers in PERFORMANCE.md). Evidence
// discovery runs once outside the timer; with -benchmem the allocations are
// the run's setup plus the round's own, which CI's bench smoke prints for
// sim-10k.
func BenchmarkTransportDetectionRound(b *testing.B) {
	cases := []struct {
		name  string
		peers int
		kind  network.Kind
	}{
		{"sim-10k", 10_002, network.KindSim},
		{"sharded-10k", 10_002, network.KindSharded},
		{"tcp-10k", 10_002, network.KindTCP},
		{"sharded-30k", 30_000, network.KindSharded},
		{"sharded-100k", 99_999, network.KindSharded},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			net := benchNecklacePDMS(b, bc.peers, 0.15)
			if _, err := net.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.ResetMessages()
				res, err := net.RunDetection(core.DetectOptions{
					MaxRounds: 1,
					Transport: bc.kind,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != 1 || res.RemoteMessages == 0 {
					b.Fatalf("degenerate round: %+v", res)
				}
			}
			b.ReportMetric(float64(bc.peers), "peers")
		})
	}
}
