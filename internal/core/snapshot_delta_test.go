package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/sim"
)

// oracleSeeds is the seed count of the differential oracles below: 50 in a
// full run, trimmed under -short so the race-detector matrix stays fast.
func oracleSeeds(t *testing.T) int64 {
	if testing.Short() {
		return 12
	}
	return 50
}

// TestExplicitZeroTheta (regression): DefaultTheta left at its zero value
// must keep selecting the historical 0.5 default, while a true θ_a = 0
// policy — route through everything — is expressible with the ExplicitZero
// sentinel. Before the sentinel existed, publishing DefaultTheta: 0 silently
// re-enabled the 0.5 gate and there was no way to publish a θ = 0 snapshot.
func TestExplicitZeroTheta(t *testing.T) {
	n := snapNet(t)
	low := posteriors(map[graph.EdgeID]float64{"m12": 0.1, "m23": 0.1, "m15": 0.1})
	op, _ := n.Peer("p1")
	q := query.MustNew(op.Schema(), query.Op{Kind: query.Project, Attr: "a"})

	// Zero value: the 0.5 default blocks every 0.1 posterior.
	s := n.PublishSnapshot(low, core.SnapshotOptions{})
	res, err := s.RouteQuery("p1", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visits) != 1 || res.Blocked == 0 {
		t.Fatalf("zero-value DefaultTheta should keep the 0.5 gate: reached %v, blocked %d",
			res.Reached(), res.Blocked)
	}

	// Sentinel: θ = 0 routes through every 0.1 posterior with no blocking.
	s = n.PublishSnapshot(low, core.SnapshotOptions{DefaultTheta: core.ExplicitZero})
	res, err = s.RouteQuery("p1", q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked != 0 {
		t.Fatalf("ExplicitZero theta still blocked %d hops", res.Blocked)
	}
	want := []graph.PeerID{"p1", "p2", "p5", "p3"}
	if got := res.Reached(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ExplicitZero theta reached %v, want %v", got, want)
	}

	// The snapshot reports the sentinel resolved to a true 0, so the
	// reference walk — which takes its policy already defaulted — routes the
	// same way.
	live, err := sim.ReferenceRoute(n, low, s.Options(), "p1", q)
	if err != nil {
		t.Fatal(err)
	}
	if live.Blocked != 0 || fmt.Sprint(live.Reached()) != fmt.Sprint(want) {
		t.Fatalf("reference ExplicitZero route reached %v (blocked %d), want %v",
			live.Reached(), live.Blocked, want)
	}
}

// TestDeltaPublication: consecutive publications on an unchanged structure
// are deltas — unchanged state is shared, only posterior movement is
// rebuilt, and only θ-verdict flips enter the delta's edge set — and every
// delta digests identically to a from-scratch publication of the same state.
func TestDeltaPublication(t *testing.T) {
	n := snapNet(t)
	det := posteriors(map[graph.EdgeID]float64{"m12": 0.9, "m23": 0.9, "m15": 0.9})
	opts := core.SnapshotOptions{}
	s1 := n.PublishSnapshot(det, opts)
	if s1.Delta() != nil {
		t.Fatal("first publication cannot be a delta")
	}

	// Identical republication: an empty delta, nothing rebuilt.
	s2 := n.PublishSnapshot(det, opts)
	d := s2.Delta()
	if d == nil || d.Size() != 0 || d.Rebuilt() != 0 || d.FromEpoch() != s1.Epoch() {
		t.Fatalf("identical republication: delta %+v, want empty from epoch %d", d, s1.Epoch())
	}

	// Posterior moves without crossing θ: rebuilt, but not a route change.
	det2 := posteriors(map[graph.EdgeID]float64{"m12": 0.8, "m23": 0.9, "m15": 0.9})
	s3 := n.PublishSnapshot(det2, opts)
	d = s3.Delta()
	if d == nil || d.Size() != 0 || d.Rebuilt() != 1 {
		t.Fatalf("posterior-only move: delta size %d rebuilt %d, want 0/1", d.Size(), d.Rebuilt())
	}

	// Posterior crosses θ: the edge enters the delta.
	det3 := posteriors(map[graph.EdgeID]float64{"m12": 0.2, "m23": 0.9, "m15": 0.9})
	s4 := n.PublishSnapshot(det3, opts)
	d = s4.Delta()
	if d == nil || d.Size() != 1 || d.ChangedEdges()[0] != "m12" {
		t.Fatalf("verdict flip: delta %v, want [m12]", d.ChangedEdges())
	}
	if s4.Posterior("m12", "a", -1) != 0.2 || s4.Posterior("m23", "a", -1) != 0.9 {
		t.Error("delta snapshot posteriors wrong")
	}

	// Each delta digests identically to a full publication of the same det.
	for _, step := range []struct {
		snap *core.RoutingSnapshot
		det  core.DetectResult
	}{{s2, det}, {s3, det2}, {s4, det3}} {
		fopts := opts
		fopts.ForceFull = true
		full := n.PublishSnapshot(step.det, fopts)
		if full.Delta() != nil {
			t.Fatal("ForceFull publication must not carry a delta")
		}
		if step.snap.Digest() != full.Digest() {
			t.Fatalf("delta snapshot (epoch %d) digest differs from full republication", step.snap.Epoch())
		}
	}
}

// TestDeltaRequiresUnchangedStructure: any structural mutation — churn,
// discovery, priors, stores, policy change — severs delta publication; the
// next snapshot is rebuilt from scratch and starts a fresh chain.
func TestDeltaRequiresUnchangedStructure(t *testing.T) {
	det := posteriors(map[graph.EdgeID]float64{"m12": 0.9, "m23": 0.9, "m15": 0.9})
	mustDelta := func(t *testing.T, n *core.Network, opts core.SnapshotOptions) {
		t.Helper()
		if n.PublishSnapshot(det, opts).Delta() == nil {
			t.Fatal("publication on an untouched structure should be a delta")
		}
	}
	t.Run("policy change", func(t *testing.T) {
		n := snapNet(t)
		n.PublishSnapshot(det, core.SnapshotOptions{})
		mustDelta(t, n, core.SnapshotOptions{})
		if n.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: 0.7}).Delta() != nil {
			t.Fatal("policy change must force a full publication")
		}
	})
	t.Run("remove mapping", func(t *testing.T) {
		n := snapNet(t)
		n.PublishSnapshot(det, core.SnapshotOptions{})
		n.RemoveMapping("m15")
		if s := n.PublishSnapshot(det, core.SnapshotOptions{}); s.Delta() != nil {
			t.Fatal("churn must force a full publication")
		} else if _, ok := s.Mapping("m15"); ok {
			t.Fatal("removed mapping survived republication")
		}
	})
	t.Run("add mapping", func(t *testing.T) {
		n := snapNet(t)
		n.PublishSnapshot(det, core.SnapshotOptions{})
		n.MustAddMapping("m14", "p1", "p4", map[schema.Attribute]schema.Attribute{"a": "a", "b": "b"})
		if s := n.PublishSnapshot(det, core.SnapshotOptions{}); s.Delta() != nil {
			t.Fatal("topology growth must force a full publication")
		} else if _, ok := s.Mapping("m14"); !ok {
			t.Fatal("new mapping missing from republication")
		}
	})
	// Prior changes and discovery keep delta publication (the per-edge diff
	// recomputes pins and posteriors) but must disable the TouchedEdges fast
	// path: a touched-set publication after either would wrongly share
	// untouched edges whose state moved. The fast path's output is
	// indistinguishable from the diff's when it is sound, so the observable
	// contract pinned here is just delta + digest-correct.
	t.Run("set prior keeps delta", func(t *testing.T) {
		n := snapNet(t)
		n.PublishSnapshot(det, core.SnapshotOptions{})
		p1, _ := n.Peer("p1")
		p1.SetPrior("m12", "a", 0.9)
		s := n.PublishSnapshot(det, core.SnapshotOptions{})
		if s.Delta() == nil {
			t.Fatal("prior change should not sever delta publication")
		}
		full := n.PublishSnapshot(det, core.SnapshotOptions{ForceFull: true})
		if s.Digest() != full.Digest() {
			t.Fatal("delta publication after a prior change diverges from full")
		}
	})
	t.Run("discovery keeps delta", func(t *testing.T) {
		n := snapNet(t)
		n.PublishSnapshot(det, core.SnapshotOptions{})
		if _, err := n.DiscoverStructural([]schema.Attribute{"a"}, 4, 0.1); err != nil {
			t.Fatal(err)
		}
		s := n.PublishSnapshot(det, core.SnapshotOptions{})
		if s.Delta() == nil {
			t.Fatal("discovery should not sever delta publication")
		}
		full := n.PublishSnapshot(det, core.SnapshotOptions{ForceFull: true})
		if s.Digest() != full.Digest() {
			t.Fatal("delta publication after discovery diverges from full")
		}
	})
	// A NaN θ entry resolves to 0 at publication, so it compares equal to
	// itself and to ExplicitZero, and republication stays a delta.
	t.Run("NaN theta entry keeps delta", func(t *testing.T) {
		n := snapNet(t)
		nan := core.SnapshotOptions{Theta: map[schema.Attribute]float64{"a": math.NaN()}}
		if got := n.PublishSnapshot(det, nan).Options().Theta["a"]; got != 0 {
			t.Fatalf("NaN θ entry resolved to %v, want 0", got)
		}
		mustDelta(t, n, nan)
		mustDelta(t, n, core.SnapshotOptions{Theta: map[schema.Attribute]float64{"a": core.ExplicitZero}})
	})
	t.Run("remove peer", func(t *testing.T) {
		n := snapNet(t)
		n.PublishSnapshot(det, core.SnapshotOptions{})
		n.RemovePeer("p3")
		if s := n.PublishSnapshot(det, core.SnapshotOptions{}); s.Delta() != nil {
			t.Fatal("peer departure must force a full publication")
		} else if s.HasPeer("p3") {
			t.Fatal("departed peer survived republication")
		}
	})
	// Feedback ingestion deliberately does NOT sever the chain: its effects
	// are confined to the touched variables the incremental detection
	// reports, which is exactly what delta publication rebuilds.
	t.Run("feedback ingest keeps delta", func(t *testing.T) {
		n := snapNet(t)
		n.PublishSnapshot(det, core.SnapshotOptions{})
		if _, err := n.IngestFeedback(core.FeedbackOptions{}, core.QueryFeedback{
			Attr: "a", Chain: []graph.EdgeID{"m12"}, Polarity: feedback.Negative,
		}); err != nil {
			t.Fatal(err)
		}
		mustDelta(t, n, core.SnapshotOptions{})
	})
}

// TestDeltaSinceChain: DeltaSince accumulates change signatures across the
// delta chain and refuses to vouch for any span it cannot prove — a full
// publication in the middle, an unknown epoch, or a future one.
func TestDeltaSinceChain(t *testing.T) {
	n := snapNet(t)
	p := func(m12 float64, force bool) *core.RoutingSnapshot {
		return n.PublishSnapshot(
			posteriors(map[graph.EdgeID]float64{"m12": m12, "m23": 0.9, "m15": 0.9}),
			core.SnapshotOptions{ForceFull: force})
	}
	s1 := p(0.9, false) // epoch 1, full (first)
	s2 := p(0.9, false) // epoch 2, empty delta
	s3 := p(0.2, false) // epoch 3, delta {m12}
	s4 := p(0.2, false) // epoch 4, empty delta

	if sig, ok := s4.DeltaSince(s4.Epoch()); !ok || !sig.IsZero() {
		t.Error("DeltaSince(self) must be (0, true)")
	}
	if _, ok := s4.DeltaSince(s4.Epoch() + 1); ok {
		t.Error("DeltaSince(future) must not vouch")
	}
	sig2, ok := s4.DeltaSince(s2.Epoch())
	if !ok || sig2.IsZero() {
		t.Fatalf("DeltaSince over a verdict flip: sig %x ok %t, want non-zero signature", sig2, ok)
	}
	sig3, ok := s4.DeltaSince(s3.Epoch())
	if !ok || !sig3.IsZero() {
		t.Fatalf("DeltaSince over the empty tail: sig %x ok %t, want (0, true)", sig3, ok)
	}
	if sig1, ok := s4.DeltaSince(s1.Epoch()); !ok || sig1 != sig2 {
		t.Fatalf("DeltaSince over the whole chain: sig %x ok %t, want %x", sig1, ok, sig2)
	}

	// A full publication severs the chain: spans crossing it are unprovable,
	// spans after it work again.
	s5 := p(0.2, true)
	s6 := p(0.2, false)
	if _, ok := s6.DeltaSince(s4.Epoch()); ok {
		t.Error("DeltaSince across a full publication must not vouch")
	}
	if _, ok := s6.DeltaSince(s5.Epoch()); !ok {
		t.Error("DeltaSince within the post-full chain must vouch")
	}
}

// TestDeltaDigestOracle is the 50-seed structural oracle of the delta path:
// on random networks driven through detection (reliable and lossy), query
// feedback with incremental re-detection, and churn, every delta-published
// snapshot must digest identically to a from-scratch publication of the same
// detection state. The digest covers policy, peers, schemas, stores, θ
// verdicts and posterior bits — and excludes the epoch — so any divergence
// in what delta publication shares versus what it rebuilds fails here.
func TestDeltaDigestOracle(t *testing.T) {
	seeds := oracleSeeds(t)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomPDMS(rng)
		if _, err := n.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pub := core.SnapshotOptions{DefaultTheta: 0.3}
		perRound := func(_ int, p map[graph.EdgeID]map[schema.Attribute]float64) {
			n.PublishSnapshot(core.DetectResult{Posteriors: p}, pub)
		}
		dopts := core.DetectOptions{MaxRounds: 20, Tolerance: 1e-9, Trace: perRound}
		if seed%3 == 0 {
			// Loss epochs: per-round publications under message loss.
			dopts.PSend, dopts.Seed = 0.7, seed
		}

		check := func(stage string, det core.DetectResult) {
			t.Helper()
			snap := n.Snapshot()
			if snap == nil {
				t.Fatalf("seed %d %s: no snapshot", seed, stage)
			}
			fopts := pub
			fopts.ForceFull = true
			full := n.PublishSnapshot(core.DetectResult{Posteriors: det.Posteriors}, fopts)
			if snap.Digest() != full.Digest() {
				t.Errorf("seed %d %s: delta-published snapshot diverges from full republication (delta %+v)",
					seed, stage, snap.Delta())
			}
		}

		// Phase 1: full detection, one delta publication per round.
		res, err := n.RunDetection(dopts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check("detection", res)

		// Phase 2: query feedback plus bounded re-detection — the
		// TouchedEdges delta path.
		var edges []graph.EdgeID
		for _, e := range n.Topology().Edges() {
			edges = append(edges, e.ID)
		}
		if len(edges) == 0 {
			continue
		}
		var obs []core.QueryFeedback
		for k := 0; k < 4; k++ {
			pol := feedback.Positive
			if rng.Float64() < 0.5 {
				pol = feedback.Negative
			}
			obs = append(obs, core.QueryFeedback{
				Attr:     "a0",
				Chain:    []graph.EdgeID{edges[rng.Intn(len(edges))]},
				Polarity: pol,
			})
		}
		if _, err := n.IngestFeedback(core.FeedbackOptions{}, obs...); err != nil {
			t.Fatalf("seed %d: ingest: %v", seed, err)
		}
		iopts := dopts
		iopts.Incremental, iopts.Trace = true, nil
		ires, err := n.RunDetection(iopts)
		if err != nil {
			t.Fatalf("seed %d: incremental: %v", seed, err)
		}
		n.PublishSnapshot(ires, pub)
		check("incremental", ires)

		// Phase 3: churn severs the chain; the forced-full successor still
		// matches a second full publication.
		n.RemoveMapping(edges[rng.Intn(len(edges))])
		churned := n.PublishSnapshot(core.DetectResult{Posteriors: ires.Posteriors}, pub)
		if churned.Delta() != nil {
			t.Errorf("seed %d: publication after churn carried a delta", seed)
		}
		check("churn", core.DetectResult{Posteriors: ires.Posteriors})
	}
}

// TestDeltaRouteEquivalence: routing on a delta-published snapshot answers
// exactly like routing on a from-scratch publication of the same state, for
// every origin — the behavioural face of the digest oracle.
func TestDeltaRouteEquivalence(t *testing.T) {
	seeds := oracleSeeds(t)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		n := randomPDMS(rng)
		if _, err := n.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pub := core.SnapshotOptions{DefaultTheta: 0.3}
		res, err := n.RunDetection(core.DetectOptions{MaxRounds: 15, Tolerance: 1e-9,
			Trace: func(_ int, p map[graph.EdgeID]map[schema.Attribute]float64) {
				n.PublishSnapshot(core.DetectResult{Posteriors: p}, pub)
			}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap := n.Snapshot()
		fopts := pub
		fopts.ForceFull = true
		full := n.PublishSnapshot(core.DetectResult{Posteriors: res.Posteriors}, fopts)
		for _, p := range n.Peers() {
			q := query.MustNew(p.Schema(), query.Op{Kind: query.Project, Attr: "a0"})
			a, err := snap.RouteQuery(p.ID(), q)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			b, err := full.RouteQuery(p.ID(), q)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if fmt.Sprint(a.Reached()) != fmt.Sprint(b.Reached()) ||
				a.Blocked != b.Blocked || a.DroppedAttr != b.DroppedAttr || a.Sig != b.Sig {
				t.Errorf("seed %d origin %s: delta route %v (b %d d %d) vs full %v (b %d d %d)",
					seed, p.ID(), a.Reached(), a.Blocked, a.DroppedAttr,
					b.Reached(), b.Blocked, b.DroppedAttr)
			}
		}
	}
}
