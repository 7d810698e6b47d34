// Benchmarks regenerating every experiment of the paper's evaluation
// (Figures 7–12), the §4.5 walkthrough and the §4.3.1 overhead bound, plus
// micro-benchmarks of the core machinery. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark reports the headline quantity of its figure as a
// custom metric so `go test -bench` output doubles as the reproduction
// record (see EXPERIMENTS.md).
package pdms_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/factorgraph"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/schema"
)

// BenchmarkFig7Convergence regenerates Figure 7: convergence of the
// iterative message passing algorithm on the example graph (priors 0.7,
// Δ=0.1). Reports iterations-to-convergence.
func BenchmarkFig7Convergence(b *testing.B) {
	var rounds int
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "iterations")
}

// BenchmarkFig9RelativeError regenerates Figure 9: error of the iterative
// scheme against exact inference while cycles grow. Reports the worst mean
// error (%) across cycle lengths (paper: < 6%).
func BenchmarkFig9RelativeError(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9(6)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range pts {
			if p.MeanAbsErr > worst {
				worst = p.MeanAbsErr
			}
		}
	}
	b.ReportMetric(100*worst, "worst-error-%")
}

// BenchmarkFig10CycleLength regenerates Figure 10: posterior of a positive
// cycle of 2–20 mappings for Δ ∈ {0.2, 0.1, 0.01}. Reports the posterior of
// the 20-mapping cycle at Δ=0.1 (paper: ≈0.5, no evidence left).
func BenchmarkFig10CycleLength(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig10(2, 20, []float64{0.2, 0.1, 0.01})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Delta == 0.1 && p.CycleLen == 20 {
				last = p.Posterior
			}
		}
	}
	b.ReportMetric(last, "posterior-at-20")
}

// BenchmarkFig11FaultTolerance regenerates Figure 11: rounds to convergence
// under message loss (3 seeds per point to keep the benchmark fast).
// Reports mean rounds at P(send)=0.1 (paper: converges even at 90% loss).
func BenchmarkFig11FaultTolerance(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig11([]float64{1.0, 0.5, 0.1}, 3)
		if err != nil {
			b.Fatal(err)
		}
		rounds = pts[len(pts)-1].MeanRounds
	}
	b.ReportMetric(rounds, "rounds-at-psend-0.1")
}

// BenchmarkFig12Precision regenerates Figure 12: precision of erroneous-
// mapping detection on the automatically aligned bibliographic ontologies.
// Reports precision at θ=0.3 (paper: ≥0.8 at low θ).
func BenchmarkFig12Precision(b *testing.B) {
	var precision float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12([]float64{0.3, 0.6})
		if err != nil {
			b.Fatal(err)
		}
		precision = res.Points[0].Precision
	}
	b.ReportMetric(precision, "precision-at-0.3")
}

// BenchmarkIntroExample regenerates the §4.5 walkthrough. Reports the
// posterior of the faulty mapping (paper: 0.3).
func BenchmarkIntroExample(b *testing.B) {
	var post float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Intro()
		if err != nil {
			b.Fatal(err)
		}
		post = res.Posterior["m24"]
	}
	b.ReportMetric(post, "m24-posterior")
}

// BenchmarkOverheadBound measures the §4.3.1 per-round remote message count
// on the Fig 5 network against the paper's bound.
func BenchmarkOverheadBound(b *testing.B) {
	var per int
	for i := 0; i < b.N; i++ {
		pt, err := experiments.Overhead()
		if err != nil {
			b.Fatal(err)
		}
		per = pt.PerRound
	}
	b.ReportMetric(float64(per), "remote-msgs/round")
}

// BenchmarkTopologyStats measures the §3.2.1 clustering claim on a
// 150-peer scale-free overlay.
func BenchmarkTopologyStats(b *testing.B) {
	var cc float64
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Topology(150, 3, 5)
		if err != nil {
			b.Fatal(err)
		}
		cc = stats[0].Clustering
	}
	b.ReportMetric(cc, "clustering")
}

// --- Micro-benchmarks of the core machinery ---

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
// 100k-peer overlay on the sharded parallel simulator (the acceptance
// workload of the transport layer; numbers in PERFORMANCE.md). Evidence
// discovery runs once outside the timer.
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
