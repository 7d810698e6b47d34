package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/sim"
	"repro/internal/xmldb"
)

// snapNet builds the thetaNet line p1→p2→p3 (+ disconnected p4, + p1→p5
// missing attribute b) with a one-record store on every peer.
func snapNet(t *testing.T) *core.Network {
	t.Helper()
	n := thetaNet(t)
	for _, p := range n.Peers() {
		st, err := xmldb.NewStore(p.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(xmldb.Record{"a": []string{"val-" + string(p.ID())}}); err != nil {
			t.Fatal(err)
		}
		if err := p.AttachStore(st); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestPublishSnapshotEpochs: epochs start at 1 and increase by one per
// publication; Snapshot returns the latest; a fresh network has none.
func TestPublishSnapshotEpochs(t *testing.T) {
	n := snapNet(t)
	if n.Snapshot() != nil {
		t.Fatal("unpublished network reports a snapshot")
	}
	det := posteriors(map[graph.EdgeID]float64{"m12": 0.9, "m23": 0.9, "m15": 0.9})
	s1 := n.PublishSnapshot(det, core.SnapshotOptions{})
	s2 := n.PublishSnapshot(det, core.SnapshotOptions{})
	if s1.Epoch() != 1 || s2.Epoch() != 2 {
		t.Fatalf("epochs %d, %d; want 1, 2", s1.Epoch(), s2.Epoch())
	}
	if got := n.Snapshot(); got != s2 {
		t.Fatalf("Snapshot returned %p, want the latest publication %p", got, s2)
	}
	if s1.NumPeers() != 5 || !s1.HasPeer("p4") || s1.HasPeer("nope") {
		t.Error("snapshot peer set wrong")
	}
	if _, ok := s1.Mapping("m12"); !ok {
		t.Error("snapshot lost mapping m12")
	}
	if p := s1.Posterior("m12", "a", -1); p != 0.9 {
		t.Errorf("snapshot posterior m12/a = %v, want 0.9", p)
	}
	if p := s1.Posterior("zz", "a", -1); p != -1 {
		t.Errorf("unknown mapping posterior = %v, want default -1", p)
	}
}

// TestSnapshotRouteMatchesLive: on random networks with random posteriors,
// the snapshot's frozen θ-gated BFS must reproduce the reference walk over
// the live network (sim.ReferenceRoute, hop-by-hop θ decisions through
// core's exported API) exactly — same visits, same rewritten queries, same
// Blocked/DroppedAttr accounting.
func TestSnapshotRouteMatchesLive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := core.NewNetwork(true)
		attrs := []schema.Attribute{"a", "b", "c"}
		const peers = 12
		for i := 0; i < peers; i++ {
			n.MustAddPeer(graph.PeerID(pname(i)), schema.MustNew("S"+pname(i), attrs...))
		}
		det := core.DetectResult{Posteriors: make(map[graph.EdgeID]map[schema.Attribute]float64)}
		edges := 0
		for i := 0; i < peers; i++ {
			for k := 0; k < 2; k++ {
				j := rng.Intn(peers)
				if j == i {
					continue
				}
				id := graph.EdgeID(pname(i) + "_" + pname(j) + "_" + string(rune('a'+k)))
				pairs := make(map[schema.Attribute]schema.Attribute)
				for _, a := range attrs {
					if rng.Float64() < 0.8 {
						pairs[a] = a
					}
				}
				if _, err := n.AddMapping(id, graph.PeerID(pname(i)), graph.PeerID(pname(j)), pairs); err != nil {
					continue
				}
				edges++
				det.Posteriors[id] = map[schema.Attribute]float64{
					"a": rng.Float64(), "b": rng.Float64(), "c": rng.Float64(),
				}
			}
		}
		if edges == 0 {
			continue
		}
		snap := n.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: 0.4})
		for i := 0; i < peers; i++ {
			origin := graph.PeerID(pname(i))
			op, _ := n.Peer(origin)
			q := query.MustNew(op.Schema(),
				query.Op{Kind: query.Project, Attr: attrs[rng.Intn(len(attrs))]},
				query.Op{Kind: query.Select, Attr: attrs[rng.Intn(len(attrs))], Literal: "x"},
			)
			live, err := sim.ReferenceRoute(n, det, snap.Options(), origin, q)
			if err != nil {
				t.Fatalf("seed %d: live route: %v", seed, err)
			}
			frozen, err := snap.RouteQuery(origin, q)
			if err != nil {
				t.Fatalf("seed %d: snapshot route: %v", seed, err)
			}
			if frozen.Blocked != live.Blocked || frozen.DroppedAttr != live.DroppedAttr {
				t.Fatalf("seed %d origin %s: gate counts (blocked %d dropped %d) vs live (%d, %d)",
					seed, origin, frozen.Blocked, frozen.DroppedAttr, live.Blocked, live.DroppedAttr)
			}
			if len(frozen.Visits) != len(live.Visits) {
				t.Fatalf("seed %d origin %s: %d visits vs live %d", seed, origin, len(frozen.Visits), len(live.Visits))
			}
			for vi := range live.Visits {
				lv, fv := live.Visits[vi], frozen.Visits[vi]
				if lv.Peer != fv.Peer || !lv.Query.Equal(fv.Query) || !reflect.DeepEqual(lv.Via, fv.Via) {
					t.Fatalf("seed %d origin %s visit %d: snapshot %+v vs live %+v", seed, origin, vi, fv, lv)
				}
			}
		}
	}
}

func pname(i int) string { return string(rune('p')) + string(rune('0'+i/10)) + string(rune('0'+i%10)) }

// TestSnapshotImmutableUnderChurn: a published snapshot keeps serving the
// frozen topology and posteriors while the live network churns underneath.
func TestSnapshotImmutableUnderChurn(t *testing.T) {
	n := snapNet(t)
	det := posteriors(map[graph.EdgeID]float64{"m12": 0.9, "m23": 0.9, "m15": 0.9})
	snap := n.PublishSnapshot(det, core.SnapshotOptions{})

	// Churn the live network: drop the p1→p2 hop and repoint everything.
	n.RemoveMapping("m12")
	n.RemovePeer("p3")

	op, _ := n.Peer("p1")
	q := query.MustNew(op.Schema(), query.Op{Kind: query.Project, Attr: "a"})
	res, err := snap.RouteQuery("p1", q)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.PeerID{"p1", "p2", "p5", "p3"}
	if got := res.Reached(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot route after churn reached %v, want frozen %v", got, want)
	}
	if _, ok := snap.Mapping("m12"); !ok {
		t.Error("snapshot lost a frozen mapping to live churn")
	}
	if _, ok := snap.Store("p3"); !ok {
		t.Error("snapshot lost a frozen store to live churn")
	}
}

// TestDetectionPublishesSnapshots: publishing from DetectOptions.Trace gives
// a snapshot per round, and the final snapshot's posteriors match the
// detection result.
func TestDetectionPublishesSnapshots(t *testing.T) {
	n := core.NewNetwork(true)
	mk := func(name string) *schema.Schema { return schema.MustNew(name, "a", "b") }
	for _, p := range []graph.PeerID{"p1", "p2", "p3"} {
		n.MustAddPeer(p, mk("S"+string(p[1])))
	}
	id := map[schema.Attribute]schema.Attribute{"a": "a", "b": "b"}
	n.MustAddMapping("m12", "p1", "p2", id)
	n.MustAddMapping("m23", "p2", "p3", id)
	n.MustAddMapping("m31", "p3", "p1", id)
	if _, err := n.Discover(core.DiscoverConfig{Attrs: []schema.Attribute{"a"}, MaxLen: 4}); err != nil {
		t.Fatal(err)
	}
	det, err := n.RunDetection(core.DetectOptions{Trace: func(_ int, p map[graph.EdgeID]map[schema.Attribute]float64) {
		n.PublishSnapshot(core.DetectResult{Posteriors: p}, core.SnapshotOptions{DefaultTheta: 0.5})
	}})
	if err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if snap == nil {
		t.Fatal("detection publishing from Trace left no snapshot")
	}
	if snap.Epoch() != uint64(det.Rounds) {
		t.Fatalf("snapshot epoch %d, want one per round = %d", snap.Epoch(), det.Rounds)
	}
	for m, attrs := range det.Posteriors {
		for a, p := range attrs {
			if got := snap.Posterior(m, a, -1); got != p {
				t.Errorf("snapshot posterior %s/%s = %v, want %v", m, a, got, p)
			}
		}
	}
}
