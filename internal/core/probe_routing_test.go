package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/xmldb"
)

// TestProbeDiscoveryMatchesStructural: the TTL probe flood must find exactly
// the evidence the structural oracle finds, and detection on either must
// give identical posteriors.
func TestProbeDiscoveryMatchesStructural(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *core.Network
	}{
		{"intro", paper.IntroNetwork},
		{"fig5", paper.Fig5Network},
		{"fig4-undirected", paper.Fig4Network},
	} {
		t.Run(tc.name, func(t *testing.T) {
			attrs := []schema.Attribute{paper.Creator}

			a := tc.build()
			repA, err := a.DiscoverStructural(attrs, 6, paper.Delta)
			if err != nil {
				t.Fatal(err)
			}
			b := tc.build()
			repB, err := b.DiscoverByProbes(attrs, 6, paper.Delta)
			if err != nil {
				t.Fatal(err)
			}
			if repA.Positive != repB.Positive || repA.Negative != repB.Negative ||
				repA.Neutral != repB.Neutral || repA.Pinned != repB.Pinned {
				t.Errorf("reports differ: structural %+v, probes %+v", repA, repB)
			}
			for _, pa := range a.Peers() {
				pb, _ := b.Peer(pa.ID())
				sa, sb := pa.EvidenceSummary(), pb.EvidenceSummary()
				if len(sa) != len(sb) {
					t.Fatalf("peer %s evidence differs:\n structural %v\n probes %v", pa.ID(), sa, sb)
				}
				for i := range sa {
					if sa[i] != sb[i] {
						t.Errorf("peer %s evidence[%d]: %q vs %q", pa.ID(), i, sa[i], sb[i])
					}
				}
			}
			ra, err := a.RunDetection(core.DetectOptions{MaxRounds: 60, Tolerance: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.RunDetection(core.DetectOptions{MaxRounds: 60, Tolerance: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			for m, ma := range ra.Posteriors {
				for attr, va := range ma {
					vb := rb.Posterior(m, attr, -1)
					if math.Abs(va-vb) > 1e-12 {
						t.Errorf("posterior[%s,%s] structural %.9f vs probes %.9f", m, attr, va, vb)
					}
				}
			}
		})
	}
}

func TestProbeDiscoveryValidation(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverByProbes(nil, 6, 0.1); err == nil {
		t.Error("no attrs: want error")
	}
	if _, err := n.DiscoverByProbes([]schema.Attribute{paper.Creator}, 1, 0.1); err == nil {
		t.Error("ttl<2: want error")
	}
	if _, err := n.DiscoverByProbes([]schema.Attribute{paper.Creator}, 6, 2); err == nil {
		t.Error("delta>1: want error")
	}
	if _, err := n.DiscoverByProbes([]schema.Attribute{paper.Creator}, 6, math.NaN()); err == nil {
		t.Error("delta NaN: want error")
	}
}

func TestProbeTTLLimitsCycleLength(t *testing.T) {
	n := paper.IntroNetwork()
	// TTL 3 finds the 3-cycle (f2) and the parallel pair but not the
	// 4-cycle (f1).
	rep, err := n.DiscoverByProbes([]schema.Attribute{paper.Creator}, 3, paper.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Positive != 0 {
		t.Errorf("report = %+v: the only positive structure is the 4-cycle, beyond TTL 3", rep)
	}
	if rep.Negative != 2 {
		t.Errorf("report = %+v, want the two negative structures within TTL 3", rep)
	}
}

// introStores attaches document stores to the intro network: each peer holds
// one artwork record; only p3's matches the river query.
func introStores(t *testing.T, n *core.Network) {
	t.Helper()
	docs := map[graph.PeerID]xmldb.Record{
		"p1": {"Creator": {"Vermeer"}, "Subject": {"girl, pearl"}, "CreatedOn": {"1665"}},
		"p2": {"Creator": {"Monet"}, "Subject": {"garden"}, "CreatedOn": {"1899"}},
		"p3": {"Creator": {"Turner"}, "Subject": {"river Thames"}, "CreatedOn": {"1805"}},
		"p4": {"Creator": {"Hokusai"}, "Subject": {"river Sumida"}, "CreatedOn": {"1831"}},
	}
	for id, rec := range docs {
		p, ok := n.Peer(id)
		if !ok {
			t.Fatalf("peer %s missing", id)
		}
		st, err := xmldb.NewStore(p.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if err := p.AttachStore(st); err != nil {
			t.Fatal(err)
		}
	}
}

// execute runs the visit's rewritten query at the visited peer's store: a
// route carries no records, callers execute Visit.Query themselves.
func execute(t *testing.T, n *core.Network, v core.Visit) []xmldb.Record {
	t.Helper()
	p, _ := n.Peer(v.Peer)
	st, ok := p.Store()
	if !ok {
		return nil
	}
	recs, err := st.Execute(v.Query)
	if err != nil {
		t.Fatalf("executing at %s: %v", v.Peer, err)
	}
	return recs
}

// TestRouteQueryAvoidsFaultyMapping reproduces the introduction end to end:
// after detection, the river query from p2 reaches every peer while avoiding
// m24, and returns no false positives.
func TestRouteQueryAvoidsFaultyMapping(t *testing.T) {
	n := paper.IntroNetwork()
	introStores(t, n)
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator, "Subject"}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	res, err := n.RunDetection(core.DetectOptions{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := n.Peer("p2")
	q := query.MustNew(p2.Schema(),
		query.Op{Kind: query.Project, Attr: paper.Creator},
		query.Op{Kind: query.Select, Attr: "Subject", Literal: "river"},
	)
	route, err := routeOn(n, res, core.SnapshotOptions{DefaultTheta: 0.5}, "p2", q)
	if err != nil {
		t.Fatal(err)
	}
	reached := route.Reached()
	if len(reached) != 4 {
		t.Fatalf("reached %v, want all four peers", reached)
	}
	// The faulty mapping must never be used.
	for _, v := range route.Visits {
		for _, via := range v.Via {
			if via == "m24" {
				t.Errorf("query routed through faulty m24: %v", v.Via)
			}
		}
	}
	if route.Blocked == 0 {
		t.Error("θ gate never blocked anything; m24 should have been blocked")
	}
	// All river artists, no false positives.
	var all []xmldb.Record
	for _, v := range route.Visits {
		all = append(all, execute(t, n, v)...)
	}
	creators := xmldb.Values(all, paper.Creator)
	if len(creators) != 2 || creators[0] != "Hokusai" || creators[1] != "Turner" {
		t.Errorf("creators = %v, want [Hokusai Turner]", creators)
	}
}

// TestRouteQueryWithoutDetectionProducesFalsePositives shows the baseline:
// a standard PDMS (no detection, θ=0) forwards through the faulty mapping
// and the query semantics break at p4 (Creator selected on CreatedOn).
func TestRouteQueryWithoutDetectionProducesFalsePositives(t *testing.T) {
	n := paper.IntroNetwork()
	introStores(t, n)
	p2, _ := n.Peer("p2")
	// Select on Creator LIKE "o" — rewritten through faulty m24 it becomes
	// a selection on CreatedOn at p4.
	q := query.MustNew(p2.Schema(),
		query.Op{Kind: query.Project, Attr: paper.Creator},
		query.Op{Kind: query.Select, Attr: paper.Creator, Literal: "18"},
	)
	route, err := routeOn(n, core.DetectResult{}, core.SnapshotOptions{DefaultTheta: 0.01}, "p2", q)
	if err != nil {
		t.Fatal(err)
	}
	// p4 is reached via m24 (BFS order: direct hop beats the 2-hop path).
	usedFaulty := false
	for _, v := range route.Visits {
		if v.Peer == "p4" {
			for _, via := range v.Via {
				if via == "m24" {
					usedFaulty = true
				}
			}
			// At p4 the query now selects CreatedOn LIKE "18": a false
			// positive (Hokusai's 1831) that the origin never asked for.
			if recs := execute(t, n, v); len(recs) != 1 {
				t.Errorf("expected the false positive at p4, got %v", recs)
			}
		}
	}
	if !usedFaulty {
		t.Error("baseline did not route through m24")
	}
}

func TestRouteQueryValidation(t *testing.T) {
	n := paper.IntroNetwork()
	p2, _ := n.Peer("p2")
	q := query.MustNew(p2.Schema(), query.Op{Kind: query.Project, Attr: paper.Creator})
	snap := n.PublishSnapshot(core.DetectResult{}, core.SnapshotOptions{})
	if _, err := snap.RouteQuery("ghost", q); err == nil {
		t.Error("unknown origin: want error")
	}
	if _, err := snap.RouteQuery("p1", query.Query{SchemaName: "Wrong"}); err == nil {
		t.Error("schema mismatch: want error")
	}
	bogus := query.Query{SchemaName: p2.Schema().Name(), Ops: []query.Op{{Kind: query.Project, Attr: "zzz"}}}
	if _, err := snap.RouteQuery("p2", bogus); err == nil {
		t.Error("unknown attribute: want error")
	}
}

func TestRouteQueryMaxHops(t *testing.T) {
	n := paper.IntroNetwork()
	p1, _ := n.Peer("p1")
	q := query.MustNew(p1.Schema(), query.Op{Kind: query.Project, Attr: paper.Creator})
	route, err := routeOn(n, core.DetectResult{}, core.SnapshotOptions{MaxHops: 1, DefaultTheta: 0.01}, "p1", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range route.Visits {
		if len(v.Via) > 1 {
			t.Errorf("visit beyond MaxHops: %v", v)
		}
	}
}

// TestLazyScheduleConverges: the lazy schedule reaches the same posteriors
// as the periodic schedule, with zero dedicated messages.
func TestLazyScheduleConverges(t *testing.T) {
	periodic := paper.IntroNetwork()
	if _, err := periodic.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	want, err := periodic.RunDetection(core.DetectOptions{MaxRounds: 500, Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}

	lazy := paper.IntroNetwork()
	if _, err := lazy.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	// Workload: repeated Creator queries from random origins.
	rng := rand.New(rand.NewSource(3))
	peers := lazy.Peers()
	var workload []core.LazyQuery
	for i := 0; i < 3000; i++ {
		p := peers[rng.Intn(len(peers))]
		workload = append(workload, core.LazyQuery{
			Origin: p.ID(),
			Query:  query.MustNew(p.Schema(), query.Op{Kind: query.Project, Attr: paper.Creator}),
		})
	}
	res, err := lazy.RunLazy(workload, core.LazyOptions{Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("lazy schedule did not converge in %d queries", res.QueriesProcessed)
	}
	if res.Piggybacked == 0 {
		t.Error("no messages piggybacked")
	}
	// The asynchronous schedule settles on a nearby loopy-BP fixed point:
	// identical decisions, posteriors within a few hundredths of the
	// synchronous schedule (they coincide exactly on tree factor graphs —
	// see TestLazyEqualsPeriodicOnTree).
	for _, m := range []graph.EdgeID{"m12", "m23", "m34", "m41", "m24"} {
		a := want.Posterior(m, paper.Creator, -1)
		b := res.Posteriors[m][paper.Creator]
		if math.Abs(a-b) > 0.05 {
			t.Errorf("lazy posterior[%s] = %.6f, periodic %.6f", m, b, a)
		}
		if (a > 0.5) != (b > 0.5) {
			t.Errorf("θ=0.5 decision differs for %s: %.4f vs %.4f", m, b, a)
		}
	}
}

// TestLazyEqualsPeriodicOnTree: on a cycle-free factor graph (a single ring
// cycle gives a tree), lazy and periodic schedules agree to machine
// precision, as the paper's §4.3.2 claims.
func TestLazyEqualsPeriodicOnTree(t *testing.T) {
	build := func() *core.Network {
		n, err := paper.RingNetwork(4, 11)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			t.Fatal(err)
		}
		return n
	}
	periodic, err := build().RunDetection(core.DetectOptions{MaxRounds: 100, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	lazyNet := build()
	peers := lazyNet.Peers()
	rng := rand.New(rand.NewSource(1))
	var workload []core.LazyQuery
	for i := 0; i < 500; i++ {
		p := peers[rng.Intn(len(peers))]
		workload = append(workload, core.LazyQuery{
			Origin: p.ID(),
			Query:  query.MustNew(p.Schema(), query.Op{Kind: query.Project, Attr: "a0"}),
		})
	}
	res, err := lazyNet.RunLazy(workload, core.LazyOptions{Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("lazy did not converge on tree")
	}
	for i := 0; i < 4; i++ {
		m := graph.EdgeID(fmt.Sprintf("m%d", i))
		a := periodic.Posterior(m, "a0", -1)
		b := res.Posteriors[m]["a0"]
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("tree posterior[%s]: lazy %.12f vs periodic %.12f", m, b, a)
		}
	}
}

func TestLazyValidation(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.RunLazy(nil, core.LazyOptions{}); err == nil {
		t.Error("empty workload: want error")
	}
	if _, err := n.RunLazy([]core.LazyQuery{{Origin: "ghost"}}, core.LazyOptions{}); err == nil {
		t.Error("unknown origin: want error")
	}
	p1, _ := n.Peer("p1")
	q := query.MustNew(p1.Schema(), query.Op{Kind: query.Project, Attr: paper.Creator})
	if _, err := n.RunLazy([]core.LazyQuery{{Origin: "p2", Query: q}}, core.LazyOptions{}); err == nil {
		t.Error("schema mismatch: want error")
	}
	if _, err := n.RunLazy([]core.LazyQuery{{Origin: "p1", Query: q}}, core.LazyOptions{DefaultPrior: 7}); err == nil {
		t.Error("bad prior: want error")
	}
	for name, opts := range map[string]core.LazyOptions{
		"NaN prior":          {DefaultPrior: math.NaN()},
		"NaN tolerance":      {Tolerance: math.NaN()},
		"negative tolerance": {Tolerance: -1},
	} {
		if _, err := n.RunLazy([]core.LazyQuery{{Origin: "p1", Query: q}}, opts); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestGrowingCycleNetworks sanity-checks the Fig 8 family.
func TestGrowingCycleNetworks(t *testing.T) {
	for extra := 0; extra <= 3; extra++ {
		n, err := paper.GrowingCycleNetwork(extra)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6+extra, paper.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Positive != 1 || rep.Negative != 2 {
			t.Errorf("extra=%d: report %+v, want 1+/2-", extra, rep)
		}
	}
	if _, err := paper.GrowingCycleNetwork(-1); err == nil {
		t.Error("negative extra: want error")
	}
}

func TestRingNetworkValidation(t *testing.T) {
	if _, err := paper.RingNetwork(1, 5); err == nil {
		t.Error("ring too small: want error")
	}
	if _, err := paper.RingNetwork(3, 0); err == nil {
		t.Error("no attributes: want error")
	}
	n, err := paper.RingNetwork(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.DiscoverStructural([]schema.Attribute{"a0"}, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Positive != 1 || rep.Negative != 0 {
		t.Errorf("ring report = %+v, want exactly one positive cycle", rep)
	}
}

// TestChurnRediscovery: removing the faulty mapping and re-discovering
// leaves only positive evidence; the surviving mappings recover high
// posteriors.
func TestChurnRediscovery(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	res1, err := n.RunDetection(core.DetectOptions{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	before := res1.Posterior("m23", paper.Creator, -1)

	n.RemoveMapping("m24")
	rep, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Negative != 0 || rep.Positive != 1 {
		t.Fatalf("after churn report = %+v, want only the positive 4-cycle", rep)
	}
	res2, err := n.RunDetection(core.DetectOptions{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	after := res2.Posterior("m23", paper.Creator, -1)
	if after <= before {
		t.Errorf("posterior should improve after the faulty mapping left: %.4f -> %.4f", before, after)
	}
	if _, ok := res2.Posteriors["m24"]; ok {
		t.Error("removed mapping still has a posterior")
	}
}

func TestEvidenceSummaryFormat(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	p2, _ := n.Peer("p2")
	lines := p2.EvidenceSummary()
	if len(lines) != 3 {
		t.Fatalf("p2 evidence = %v, want 3 entries (f1, f2, f3)", lines)
	}
	for _, l := range lines {
		if l == "" {
			t.Error("empty summary line")
		}
	}
	_ = fmt.Sprint(lines)
}
