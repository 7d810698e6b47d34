package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
)

// thetaNet builds a line p1→p2→p3 plus a disconnected p4 and a mapping
// p1→p5 that lacks attribute "b". All schemas share attributes a and b.
func thetaNet(t *testing.T) *core.Network {
	t.Helper()
	n := core.NewNetwork(true)
	mk := func(name string) *schema.Schema { return schema.MustNew(name, "a", "b") }
	for _, p := range []graph.PeerID{"p1", "p2", "p3", "p4", "p5"} {
		n.MustAddPeer(p, mk("S"+string(p[1])))
	}
	id := map[schema.Attribute]schema.Attribute{"a": "a", "b": "b"}
	n.MustAddMapping("m12", "p1", "p2", id)
	n.MustAddMapping("m23", "p2", "p3", id)
	n.MustAddMapping("m15", "p1", "p5", map[schema.Attribute]schema.Attribute{"a": "a"})
	return n
}

// posteriors builds a DetectResult with the given posterior for attribute
// "a" on every listed mapping.
func posteriors(vals map[graph.EdgeID]float64) core.DetectResult {
	out := core.DetectResult{Posteriors: make(map[graph.EdgeID]map[schema.Attribute]float64)}
	for m, v := range vals {
		out.Posteriors[m] = map[schema.Attribute]float64{"a": v}
	}
	return out
}

// routeOn publishes det under opts and walks the snapshot — the only router.
func routeOn(n *core.Network, det core.DetectResult, opts core.SnapshotOptions, origin graph.PeerID, q query.Query) (core.RouteResult, error) {
	return n.PublishSnapshot(det, opts).RouteQuery(origin, q)
}

// TestRouteQueryThetaEdgeCases: table-driven edge cases of the θ gate —
// a posterior exactly at θ is blocked (the gate is strict), barely above
// passes, per-attribute thresholds override the default, unmapped
// attributes drop the hop, disconnected peers stay unreachable, and a peer
// with no outgoing mappings yields a zero-hop result.
func TestRouteQueryThetaEdgeCases(t *testing.T) {
	cases := []struct {
		name        string
		origin      graph.PeerID
		attr        schema.Attribute
		opts        core.SnapshotOptions
		det         core.DetectResult
		wantReached []graph.PeerID
		wantBlocked int
		wantDropped int
	}{
		{
			name:   "posterior exactly at theta is blocked",
			origin: "p1", attr: "a",
			opts:        core.SnapshotOptions{DefaultTheta: 0.5},
			det:         posteriors(map[graph.EdgeID]float64{"m12": 0.5, "m15": 0.9}),
			wantReached: []graph.PeerID{"p1", "p5"},
			wantBlocked: 1,
		},
		{
			name:   "posterior barely above theta passes",
			origin: "p1", attr: "a",
			opts:        core.SnapshotOptions{DefaultTheta: 0.5},
			det:         posteriors(map[graph.EdgeID]float64{"m12": 0.5 + 1e-12, "m23": 0.9, "m15": 0.9}),
			wantReached: []graph.PeerID{"p1", "p2", "p5", "p3"},
		},
		{
			name:   "per-attribute theta overrides the default",
			origin: "p1", attr: "a",
			opts: core.SnapshotOptions{
				DefaultTheta: 0.1,
				Theta:        map[schema.Attribute]float64{"a": 0.95},
			},
			det:         posteriors(map[graph.EdgeID]float64{"m12": 0.9, "m15": 0.96}),
			wantReached: []graph.PeerID{"p1", "p5"},
			wantBlocked: 1,
		},
		{
			name:   "unmapped attribute drops the hop",
			origin: "p1", attr: "b",
			det: posteriors(map[graph.EdgeID]float64{"m12": 0.9, "m23": 0.9}),
			// m15 lacks b entirely; m12 carries b but its posterior for b
			// is absent, so the 0.5 default meets the default θ and blocks
			// (m23 is never evaluated — p2 stays unreached).
			wantReached: []graph.PeerID{"p1"},
			wantBlocked: 1,
			wantDropped: 1,
		},
		{
			name:   "uncovered mappings route on the default posterior",
			origin: "p1", attr: "a",
			opts:        core.SnapshotOptions{DefaultTheta: 0.4, DefaultPosterior: 0.45},
			det:         posteriors(nil),
			wantReached: []graph.PeerID{"p1", "p2", "p5", "p3"},
		},
		{
			name:   "disconnected origin is a zero-hop query",
			origin: "p4", attr: "a",
			det: posteriors(map[graph.EdgeID]float64{"m12": 0.9}),
			// p4 has no outgoing mappings: the query executes locally only.
			wantReached: []graph.PeerID{"p4"},
		},
		{
			name:   "max hops bounds propagation",
			origin: "p1", attr: "a",
			opts:        core.SnapshotOptions{MaxHops: 1},
			det:         posteriors(map[graph.EdgeID]float64{"m12": 0.9, "m23": 0.9, "m15": 0.9}),
			wantReached: []graph.PeerID{"p1", "p2", "p5"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := thetaNet(t)
			op, _ := n.Peer(tc.origin)
			q := query.MustNew(op.Schema(), query.Op{Kind: query.Project, Attr: tc.attr})
			res, err := routeOn(n, tc.det, tc.opts, tc.origin, q)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Reached()
			if len(got) != len(tc.wantReached) {
				t.Fatalf("reached %v, want %v", got, tc.wantReached)
			}
			for i := range got {
				if got[i] != tc.wantReached[i] {
					t.Fatalf("reached %v, want %v", got, tc.wantReached)
				}
			}
			if res.Blocked != tc.wantBlocked {
				t.Errorf("Blocked = %d, want %d", res.Blocked, tc.wantBlocked)
			}
			if res.DroppedAttr != tc.wantDropped {
				t.Errorf("DroppedAttr = %d, want %d", res.DroppedAttr, tc.wantDropped)
			}
			// A disconnected peer must never appear unless it is the origin.
			for _, p := range got {
				if p == "p4" && tc.origin != "p4" {
					t.Error("disconnected p4 was reached")
				}
			}
		})
	}
}

// TestRouteQueryZeroMaxHopsMeansDefault: MaxHops <= 0 selects the
// peer-count default rather than a zero-hop query — a peer that wants
// local-only execution simply has no eligible outgoing mappings.
func TestRouteQueryZeroMaxHopsMeansDefault(t *testing.T) {
	n := thetaNet(t)
	op, _ := n.Peer("p1")
	q := query.MustNew(op.Schema(), query.Op{Kind: query.Project, Attr: schema.Attribute("a")})
	res, err := routeOn(n, posteriors(map[graph.EdgeID]float64{"m12": 0.9, "m23": 0.9, "m15": 0.9}),
		core.SnapshotOptions{MaxHops: 0}, "p1", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Visits) != 4 {
		t.Errorf("MaxHops=0 visited %d peers, want the full reach of 4", len(res.Visits))
	}
}

// TestRouteQueryErrors: unknown origins and schema mismatches fail loudly.
func TestRouteQueryErrors(t *testing.T) {
	n := thetaNet(t)
	op, _ := n.Peer("p1")
	q := query.MustNew(op.Schema(), query.Op{Kind: query.Project, Attr: schema.Attribute("a")})
	snap := n.PublishSnapshot(core.DetectResult{}, core.SnapshotOptions{})
	if _, err := snap.RouteQuery("ghost", q); err == nil {
		t.Error("unknown origin: want error")
	}
	if _, err := snap.RouteQuery("p2", q); err == nil {
		t.Error("schema mismatch: want error")
	}
}
