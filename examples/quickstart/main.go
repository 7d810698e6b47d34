// Command quickstart builds the paper's introductory four-peer art-database
// network (Figure 1), detects the faulty Creator mapping with decentralized
// message passing, and shows how the θ gate routes a query around it —
// everything through the public pdms API.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	pdms "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Four art databases, one schema each. For clarity the schemas share
	// attribute names; nothing in the library depends on that.
	attrs := []pdms.Attribute{
		"Creator", "CreatedOn", "Title", "Subject", "Medium", "Museum",
		"Location", "Style", "Period", "Provenance", "GUID",
	}
	net := pdms.NewNetwork(true)
	schemas := map[pdms.PeerID]*pdms.Schema{}
	for _, id := range []pdms.PeerID{"p1", "p2", "p3", "p4"} {
		s := pdms.MustNewSchema("S"+string(id[1:]), attrs...)
		schemas[id] = s
		if _, err := net.AddPeer(id, s); err != nil {
			return err
		}
	}

	// Five pairwise mappings. Four are correct; m24 erroneously maps
	// Creator onto CreatedOn (and vice versa) — the introduction's bug.
	identity := pdms.IdentityPairs(schemas["p1"])
	faulty := pdms.IdentityPairs(schemas["p1"])
	faulty["Creator"], faulty["CreatedOn"] = "CreatedOn", "Creator"

	type edge struct {
		id       pdms.MappingID
		from, to pdms.PeerID
		pairs    map[pdms.Attribute]pdms.Attribute
	}
	for _, e := range []edge{
		{"m12", "p1", "p2", identity},
		{"m23", "p2", "p3", identity},
		{"m34", "p3", "p4", identity},
		{"m41", "p4", "p1", identity},
		{"m24", "p2", "p4", faulty},
	} {
		if _, err := net.AddMapping(e.id, e.from, e.to, e.pairs); err != nil {
			return err
		}
	}

	// Gather evidence: cycles and parallel paths up to 6 mappings, Δ=0.1
	// (schemas of eleven attributes, §4.5). Subject is analyzed too since
	// the query below references it; the θ gate requires P > θ for every
	// attribute a query touches.
	rep, err := net.DiscoverStructural([]pdms.Attribute{"Creator", "Subject"}, 6, 0.1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "evidence: %d positive, %d negative observations\n", rep.Positive, rep.Negative)

	// Decentralized detection with uniform priors 0.5.
	res, err := net.RunDetection(pdms.DetectOptions{MaxRounds: 200})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "converged after %d rounds (%d remote messages)\n\n", res.Rounds, res.RemoteMessages)
	fmt.Fprintln(w, "posterior P(mapping correct for Creator):")
	for _, m := range []pdms.MappingID{"m12", "m23", "m34", "m41", "m24"} {
		marker := ""
		if p := res.Posterior(m, "Creator", 0.5); p < 0.5 {
			marker = "   <- detected faulty"
			fmt.Fprintf(w, "  %s  %.3f%s\n", m, p, marker)
		} else {
			fmt.Fprintf(w, "  %s  %.3f\n", m, p)
		}
	}

	// §4.5: the faulty mapping is ignored at θ=0.5; the query still reaches
	// every peer through the sound mappings.
	q := pdms.MustNewQuery(schemas["p2"],
		pdms.Op{Kind: pdms.Project, Attr: "Creator"},
		pdms.Op{Kind: pdms.Select, Attr: "Subject", Literal: "river"},
	)
	route, err := net.PublishSnapshot(res, pdms.SnapshotOptions{DefaultTheta: 0.5}).RouteQuery("p2", q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nquery %v\n", q)
	for _, v := range route.Visits {
		fmt.Fprintf(w, "  reached %s via %v\n", v.Peer, v.Via)
	}
	fmt.Fprintf(w, "  hops blocked by θ gate: %d\n", route.Blocked)
	return nil
}
