package pdms_test

import (
	"math"
	"reflect"
	"testing"

	pdms "repro"
	"repro/internal/sim"
)

// buildPublicNetwork assembles the introductory network purely through the
// public API, as a downstream user would.
func buildPublicNetwork(t testing.TB) (*pdms.Network, map[pdms.PeerID]*pdms.Schema) {
	t.Helper()
	attrs := []pdms.Attribute{
		"Creator", "CreatedOn", "Title", "Subject", "Medium", "Museum",
		"Location", "Style", "Period", "Provenance", "GUID",
	}
	net := pdms.NewNetwork(true)
	schemas := map[pdms.PeerID]*pdms.Schema{}
	for _, id := range []pdms.PeerID{"p1", "p2", "p3", "p4"} {
		s, err := pdms.NewSchema("S"+string(id[1:]), attrs...)
		if err != nil {
			t.Fatal(err)
		}
		schemas[id] = s
		if _, err := net.AddPeer(id, s); err != nil {
			t.Fatal(err)
		}
	}
	identity := pdms.IdentityPairs(schemas["p1"])
	faulty := pdms.IdentityPairs(schemas["p1"])
	faulty["Creator"], faulty["CreatedOn"] = "CreatedOn", "Creator"
	net.MustAddMapping("m12", "p1", "p2", identity)
	net.MustAddMapping("m23", "p2", "p3", identity)
	net.MustAddMapping("m34", "p3", "p4", identity)
	net.MustAddMapping("m41", "p4", "p1", identity)
	net.MustAddMapping("m24", "p2", "p4", faulty)
	return net, schemas
}

func TestPublicAPIEndToEnd(t *testing.T) {
	net, schemas := buildPublicNetwork(t)

	// Delta helper matches the paper's 1/10 for eleven attributes.
	if d := pdms.Delta(11); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("Delta(11) = %v", d)
	}

	rep, err := net.DiscoverStructural([]pdms.Attribute{"Creator", "Subject"}, 6, pdms.Delta(11))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Positive == 0 || rep.Negative == 0 {
		t.Fatalf("report = %+v", rep)
	}
	res, err := net.RunDetection(pdms.DetectOptions{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Posterior("m24", "Creator", 0.5); p >= 0.5 {
		t.Errorf("m24 posterior = %.3f, want < 0.5", p)
	}

	// Attach a store, insert a document, route a query.
	p3, _ := net.Peer("p3")
	st, err := pdms.NewStore(schemas["p3"])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertXML(`<Image><Creator>Turner</Creator><Subject>the river Thames</Subject></Image>`); err != nil {
		t.Fatal(err)
	}
	if err := p3.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	q, err := pdms.NewQuery(schemas["p2"],
		pdms.Op{Kind: pdms.Project, Attr: "Creator"},
		pdms.Op{Kind: pdms.Select, Attr: "Subject", Literal: "river"},
	)
	if err != nil {
		t.Fatal(err)
	}
	snap := net.PublishSnapshot(res, pdms.SnapshotOptions{DefaultTheta: 0.5})
	route, err := snap.RouteQuery("p2", q)
	if err != nil {
		t.Fatal(err)
	}
	// The frozen route equals the reference walk over the live network.
	ref, err := sim.ReferenceRoute(net, res, snap.Options(), "p2", q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(route.Visits, ref.Visits) || route.Blocked != ref.Blocked || route.DroppedAttr != ref.DroppedAttr {
		t.Errorf("frozen route %+v differs from the reference %+v", route, ref)
	}
	// Executing each visit's rewritten query at its peer yields the answer.
	var recs []pdms.Record
	for _, v := range route.Visits {
		p, _ := net.Peer(v.Peer)
		if st, ok := p.Store(); ok {
			out, err := st.Execute(v.Query)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, out...)
		}
	}
	creators := pdms.Values(recs, "Creator")
	if len(creators) != 1 || creators[0] != "Turner" {
		t.Errorf("creators = %v, want [Turner]", creators)
	}
	for _, v := range route.Visits {
		for _, via := range v.Via {
			if via == "m24" {
				t.Error("query used the faulty mapping")
			}
		}
	}
}

func TestPublicPrecisionCurve(t *testing.T) {
	items := []pdms.Judgment{
		{Posterior: 0.1, Faulty: true},
		{Posterior: 0.9, Faulty: false},
	}
	pts := pdms.PrecisionCurve(items, []float64{0.5})
	if len(pts) != 1 || pts[0].Precision != 1 || pts[0].Recall != 1 {
		t.Errorf("points = %+v", pts)
	}
}

func TestPublicMustNewQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewQuery should panic on invalid attribute")
		}
	}()
	s := pdms.MustNewSchema("S", "a")
	pdms.MustNewQuery(s, pdms.Op{Kind: pdms.Project, Attr: "zzz"})
}

func TestPublicProbeDiscovery(t *testing.T) {
	net, _ := buildPublicNetwork(t)
	rep, err := net.DiscoverByProbes([]pdms.Attribute{"Creator"}, 6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Positive != 1 || rep.Negative != 2 {
		t.Errorf("probe report = %+v", rep)
	}
}

func TestPublicLazySchedule(t *testing.T) {
	net, schemas := buildPublicNetwork(t)
	if _, err := net.DiscoverStructural([]pdms.Attribute{"Creator"}, 6, 0.1); err != nil {
		t.Fatal(err)
	}
	var workload []pdms.LazyQuery
	origins := []pdms.PeerID{"p1", "p2", "p3", "p4"}
	for i := 0; i < 2000; i++ {
		id := origins[i%len(origins)]
		workload = append(workload, pdms.LazyQuery{
			Origin: id,
			Query:  pdms.MustNewQuery(schemas[id], pdms.Op{Kind: pdms.Project, Attr: "Creator"}),
		})
	}
	res, err := net.RunLazy(workload, pdms.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("lazy run did not converge after %d queries", res.Rounds)
	}
}
