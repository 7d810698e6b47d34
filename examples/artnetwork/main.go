// Command artnetwork runs the introduction end to end with real documents:
// each peer stores XML artwork records; the same query is routed once like a
// standard PDMS (no mapping-quality information) and once with detection
// enabled, demonstrating the false positives the faulty mapping causes and
// their elimination (§1.2 and §4.5 of the paper).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	pdms "repro"
)

// Documents in the style of Figure 2, one store per peer.
var docs = map[pdms.PeerID][]string{
	"p1": {
		`<Image><GUID>a1</GUID><Creator>Vermeer</Creator><Subject>girl with pearl</Subject><CreatedOn>1665</CreatedOn></Image>`,
	},
	"p2": {
		`<Image><GUID>b1</GUID><Creator>Monet</Creator><Subject>garden at Giverny</Subject><CreatedOn>1899</CreatedOn></Image>`,
	},
	"p3": {
		`<Image><GUID>c1</GUID><Creator>Turner</Creator><Subject>the river Thames</Subject><CreatedOn>1805</CreatedOn></Image>`,
	},
	"p4": {
		`<Image><GUID>d1</GUID><Creator>Hokusai</Creator><Subject>river Sumida</Subject><CreatedOn>1831</CreatedOn></Image>`,
		`<Image><GUID>d2</GUID><Creator>Hiroshige</Creator><Subject>plum orchard</Subject><CreatedOn>1857</CreatedOn></Image>`,
	},
}

func buildNetwork() (*pdms.Network, map[pdms.PeerID]*pdms.Schema, error) {
	attrs := []pdms.Attribute{
		"Creator", "CreatedOn", "Title", "Subject", "Medium", "Museum",
		"Location", "Style", "Period", "Provenance", "GUID",
	}
	net := pdms.NewNetwork(true)
	schemas := map[pdms.PeerID]*pdms.Schema{}
	for _, id := range []pdms.PeerID{"p1", "p2", "p3", "p4"} {
		s := pdms.MustNewSchema("S"+string(id[1:]), attrs...)
		schemas[id] = s
		p, err := net.AddPeer(id, s)
		if err != nil {
			return nil, nil, err
		}
		st, err := pdms.NewStore(s)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range docs[id] {
			if err := st.InsertXML(d); err != nil {
				return nil, nil, err
			}
		}
		if err := p.AttachStore(st); err != nil {
			return nil, nil, err
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
	return net, schemas, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	net, schemas, err := buildNetwork()
	if err != nil {
		return err
	}

	// A user at p2 wants creators of works from the 18xx era: a selection
	// on Creator-era via CreatedOn would be legitimate, but the query below
	// selects on Creator LIKE "18" only to expose the bug: routed through
	// the faulty m24, the selection lands on CreatedOn at p4.
	q := pdms.MustNewQuery(schemas["p2"],
		pdms.Op{Kind: pdms.Project, Attr: "Creator"},
		pdms.Op{Kind: pdms.Select, Attr: "Creator", Literal: "18"},
	)
	fmt.Fprintf(w, "query at p2: %v\n\n", q)

	// Standard PDMS: no quality information, forward everywhere.
	naive, err := net.PublishSnapshot(pdms.DetectResult{}, pdms.SnapshotOptions{DefaultTheta: 0.01}).RouteQuery("p2", q)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "— standard PDMS (mappings trusted blindly) —")
	if err := printResults(w, net, naive); err != nil {
		return err
	}

	// With detection: discover evidence, infer, route with θ=0.5.
	if _, err := net.DiscoverStructural([]pdms.Attribute{"Creator", "CreatedOn"}, 6, 0.1); err != nil {
		return err
	}
	res, err := net.RunDetection(pdms.DetectOptions{MaxRounds: 200})
	if err != nil {
		return err
	}
	informed, err := net.PublishSnapshot(res, pdms.SnapshotOptions{DefaultTheta: 0.5}).RouteQuery("p2", q)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "— with probabilistic message passing (θ = 0.5) —")
	if err := printResults(w, net, informed); err != nil {
		return err
	}
	fmt.Fprintf(w, "hops blocked by the θ gate: %d\n", informed.Blocked)
	return nil
}

// printResults executes every visit's rewritten query at the visited peer's
// store — the route itself carries no records — and prints the answers.
func printResults(w io.Writer, net *pdms.Network, r pdms.RouteResult) error {
	fmt.Fprintf(w, "  visited peers: %v\n", r.Reached())
	total := 0
	for _, v := range r.Visits {
		p, _ := net.Peer(v.Peer)
		st, ok := p.Store()
		if !ok {
			continue
		}
		recs, err := st.Execute(v.Query)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			total++
			fmt.Fprintf(w, "  answer from %s via %v: %v  (query arrived as %v)\n", v.Peer, v.Via, rec, v.Query)
		}
	}
	fmt.Fprintf(w, "  total answers: %d", total)
	if total > 0 {
		fmt.Fprint(w, "  — every one a false positive: no artist is named \"18…\"")
	}
	fmt.Fprint(w, "\n\n")
	return nil
}
