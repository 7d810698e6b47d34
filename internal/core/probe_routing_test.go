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

// randomUndirectedPDMS builds a random undirected PDMS in which roughly a
// third of the peers do not declare a0: a cycle whose least peer lacks an
// analysis attribute is evaluated from another of its peers, and a mapping
// into such a peer loses a0 (⊥).
func randomUndirectedPDMS(rng *rand.Rand) *core.Network {
	full := []schema.Attribute{"a0", "a1", "a2", "a3"}
	nPeers := 4 + rng.Intn(3)
	net := core.NewNetwork(false)
	schemas := make([]*schema.Schema, nPeers)
	for i := range schemas {
		attrs := full
		if rng.Float64() < 0.35 {
			attrs = full[1:]
		}
		schemas[i] = schema.MustNew(fmt.Sprintf("S%d", i), attrs...)
		net.MustAddPeer(graph.PeerID(fmt.Sprintf("p%d", i)), schemas[i])
	}
	e := 0
	for i := 0; i < nPeers; i++ {
		for j := i + 1; j < nPeers; j++ {
			// Occasionally a second mapping between the same pair: a
			// two-mapping cycle.
			for k := 0; k < 2 && rng.Float64() < 0.5; k++ {
				pairs := make(map[schema.Attribute]schema.Attribute)
				for _, a := range full {
					if schemas[i].Has(a) && schemas[j].Has(a) {
						pairs[a] = a
					}
				}
				if rng.Float64() < 0.25 && schemas[i].Has("a0") && schemas[j].Has("a0") {
					pairs["a0"], pairs["a1"] = "a1", "a0"
				}
				net.MustAddMapping(graph.EdgeID(fmt.Sprintf("e%02d", e)),
					graph.PeerID(fmt.Sprintf("p%d", i)), graph.PeerID(fmt.Sprintf("p%d", j)), pairs)
				e++
			}
		}
	}
	return net
}

// TestProbeDiscoveryBitIdentical: probe discovery is Discover with a flood in
// place of the enumerator, so the two build the same state bit for bit — the
// same report, the same inference digest, and after detection the same
// posterior bits and the same number of remote messages.
func TestProbeDiscoveryBitIdentical(t *testing.T) {
	type tc struct {
		name  string
		build func() *core.Network
		attrs []schema.Attribute
		ttl   int
		delta float64 // 0 derives Δ from the evaluating peer's schema
	}
	cases := []tc{
		{"intro", paper.IntroNetwork, []schema.Attribute{paper.Creator, paper.CreatedOn}, 6, paper.Delta},
		{"fig5", paper.Fig5Network, []schema.Attribute{paper.Creator}, 6, paper.Delta},
		{"fig4-undirected", paper.Fig4Network, []schema.Attribute{paper.Creator}, 6, paper.Delta},
	}
	for seed := int64(1); seed <= 12; seed++ {
		ttl := 2 + int(seed)%4
		cases = append(cases,
			tc{fmt.Sprintf("directed-seed%d-ttl%d", seed, ttl), func() *core.Network {
				return randomPDMS(rand.New(rand.NewSource(seed)))
			}, []schema.Attribute{"a0", "a1", "a2"}, ttl, 0.1},
			tc{fmt.Sprintf("undirected-seed%d-ttl%d", seed, ttl), func() *core.Network {
				return randomUndirectedPDMS(rand.New(rand.NewSource(seed)))
			}, []schema.Attribute{"a0", "a1"}, ttl, 0},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := c.build(), c.build()
			repA, err := a.Discover(core.DiscoverConfig{Attrs: c.attrs, MaxLen: c.ttl, Delta: c.delta})
			if err != nil {
				t.Fatal(err)
			}
			repB, err := b.DiscoverByProbes(c.attrs, c.ttl, c.delta)
			if err != nil {
				t.Fatal(err)
			}
			if repA != repB {
				t.Errorf("reports differ: Discover %+v, probes %+v", repA, repB)
			}
			if da, db := a.InferenceDigest(), b.InferenceDigest(); !digestEqual(da, db) {
				t.Errorf("inference digests differ:\n Discover %v\n probes   %v", da, db)
			}
			opts := core.DetectOptions{MaxRounds: 40, Tolerance: 1e-300}
			ra, err := a.RunDetection(opts)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.RunDetection(opts)
			if err != nil {
				t.Fatal(err)
			}
			if ra.RemoteMessages != rb.RemoteMessages {
				t.Errorf("remote messages: Discover %d, probes %d", ra.RemoteMessages, rb.RemoteMessages)
			}
			if len(ra.Posteriors) != len(rb.Posteriors) {
				t.Fatalf("posteriors over %d mappings, probes %d", len(ra.Posteriors), len(rb.Posteriors))
			}
			for m, attrs := range ra.Posteriors {
				if len(attrs) != len(rb.Posteriors[m]) {
					t.Errorf("mapping %s: %d posteriors, probes %d", m, len(attrs), len(rb.Posteriors[m]))
				}
				for at, va := range attrs {
					vb, ok := rb.Posteriors[m][at]
					if !ok || math.Float64bits(va) != math.Float64bits(vb) {
						t.Errorf("posterior[%s,%s]: Discover %v, probes %v (present %v)", m, at, va, vb, ok)
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
		"NaN theta":          {Theta: math.NaN()},
		"negative theta":     {Theta: -0.5},
		"theta above 1":      {Theta: 1.5},
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
