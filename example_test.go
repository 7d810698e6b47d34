package pdms_test

import (
	"fmt"

	pdms "repro"
)

// Example builds the paper's introductory network, detects the faulty
// mapping and routes a query around it.
func Example() {
	attrs := []pdms.Attribute{
		"Creator", "CreatedOn", "Title", "Subject", "Medium", "Museum",
		"Location", "Style", "Period", "Provenance", "GUID",
	}
	net := pdms.NewNetwork(true)
	for _, id := range []pdms.PeerID{"p1", "p2", "p3", "p4"} {
		net.MustAddPeer(id, pdms.MustNewSchema("S"+string(id[1:]), attrs...))
	}
	p1, _ := net.Peer("p1")
	identity := pdms.IdentityPairs(p1.Schema())
	faulty := pdms.IdentityPairs(p1.Schema())
	faulty["Creator"], faulty["CreatedOn"] = "CreatedOn", "Creator"
	net.MustAddMapping("m12", "p1", "p2", identity)
	net.MustAddMapping("m23", "p2", "p3", identity)
	net.MustAddMapping("m34", "p3", "p4", identity)
	net.MustAddMapping("m41", "p4", "p1", identity)
	net.MustAddMapping("m24", "p2", "p4", faulty)

	if _, err := net.DiscoverStructural([]pdms.Attribute{"Creator"}, 6, 0.1); err != nil {
		panic(err)
	}
	res, err := net.RunDetection(pdms.DetectOptions{MaxRounds: 200})
	if err != nil {
		panic(err)
	}
	fmt.Printf("m23 sound:  %v\n", res.Posterior("m23", "Creator", 0.5) > 0.5)
	fmt.Printf("m24 faulty: %v\n", res.Posterior("m24", "Creator", 0.5) < 0.5)
	// Output:
	// m23 sound:  true
	// m24 faulty: true
}

// ExampleDelta shows the Δ heuristic of §4.5: an eleven-attribute schema
// gives a 1-in-10 chance that a second mapping error cancels the first.
func ExampleDelta() {
	fmt.Println(pdms.Delta(11))
	// Output:
	// 0.1
}

// ExampleRoutingSnapshot_RouteQuery routes a query with the θ gate on priors
// alone (no detection yet): every attribute must clear θ through a mapping
// for the query to cross it.
func ExampleRoutingSnapshot_RouteQuery() {
	s := pdms.MustNewSchema("S", "Creator")
	net := pdms.NewNetwork(true)
	net.MustAddPeer("a", s)
	net.MustAddPeer("b", s)
	net.MustAddMapping("m", "a", "b", pdms.IdentityPairs(s))

	q := pdms.MustNewQuery(s, pdms.Op{Kind: pdms.Project, Attr: "Creator"})
	snap := net.PublishSnapshot(pdms.DetectResult{}, pdms.SnapshotOptions{DefaultTheta: 0.4})
	route, err := snap.RouteQuery("a", q)
	if err != nil {
		panic(err)
	}
	fmt.Println(route.Reached())
	// Output:
	// [a b]
}

// ExamplePrecisionCurve scores a small judgment set the way Fig 12 does.
func ExamplePrecisionCurve() {
	items := []pdms.Judgment{
		{Posterior: 0.1, Faulty: true},
		{Posterior: 0.2, Faulty: false},
		{Posterior: 0.9, Faulty: false},
	}
	for _, p := range pdms.PrecisionCurve(items, []float64{0.15, 0.5}) {
		fmt.Printf("θ=%.2f detected=%d precision=%.2f\n", p.Theta, p.Detected, p.Precision)
	}
	// Output:
	// θ=0.15 detected=1 precision=1.00
	// θ=0.50 detected=2 precision=0.50
}
