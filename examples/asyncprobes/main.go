// Command asyncprobes demonstrates the fully distributed deployment of the
// scheme: evidence is gathered by TTL-bounded probe floods (§3.2.1, not by
// inspecting the topology), and inference runs on the asynchronous schedule
// of §4.3 — no global rounds and no barrier: every component of the factor
// graph converges on its own residual frontier, and a peer resends a message
// only when its inputs moved. The run is deterministic, so the message count
// it prints is the same on every run. It also shows the coarse storage
// granularity of §4.1, which keeps a single quality value per mapping.
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
	attrs := []pdms.Attribute{
		"Creator", "CreatedOn", "Title", "Subject", "Medium", "Museum",
		"Location", "Style", "Period", "Provenance", "GUID",
	}
	net := pdms.NewNetwork(true)
	schemas := map[pdms.PeerID]*pdms.Schema{}
	for _, id := range []pdms.PeerID{"p1", "p2", "p3", "p4"} {
		s := pdms.MustNewSchema("S"+string(id[1:]), attrs...)
		schemas[id] = s
		net.MustAddPeer(id, s)
	}
	identity := pdms.IdentityPairs(schemas["p1"])
	faulty := pdms.IdentityPairs(schemas["p1"])
	faulty["Creator"], faulty["CreatedOn"] = "CreatedOn", "Creator"
	net.MustAddMapping("m12", "p1", "p2", identity)
	net.MustAddMapping("m23", "p2", "p3", identity)
	net.MustAddMapping("m34", "p3", "p4", identity)
	net.MustAddMapping("m41", "p4", "p1", identity)
	net.MustAddMapping("m24", "p2", "p4", faulty)

	// Probe flooding with TTL 6: peers discover cycles and parallel paths
	// by comparing attribute images carried in the probes — no one ever
	// sees the topology.
	rep, err := net.DiscoverByProbes([]pdms.Attribute{"Creator"}, 6, 0.1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "probes found %d positive and %d negative observations\n", rep.Positive, rep.Negative)

	// Asynchronous detection: each component runs until its frontier of
	// moving messages empties.
	res, err := net.RunDetectionAsync(pdms.DetectOptions{MaxRounds: 120})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "asynchronous run: %d messages, settled=%v\n\n", res.RemoteMessages, res.Converged)
	for _, m := range []pdms.MappingID{"m12", "m23", "m34", "m41", "m24"} {
		fmt.Fprintf(w, "  %s  P(correct for Creator) = %.3f\n", m, res.Posterior(m, "Creator", 0.5))
	}

	// Coarse granularity: one global value per mapping from the
	// multi-attribute comparison.
	if _, err := net.Discover(pdms.DiscoverConfig{
		Attrs:       attrs,
		MaxLen:      6,
		Delta:       0.1,
		Granularity: pdms.CoarseGrained,
	}); err != nil {
		return err
	}
	coarse, err := net.RunDetection(pdms.DetectOptions{MaxRounds: 200})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ncoarse granularity (one value per mapping):")
	for _, m := range []pdms.MappingID{"m12", "m23", "m34", "m41", "m24"} {
		fmt.Fprintf(w, "  %s  P(correct) = %.3f\n", m, coarse.Posterior(m, pdms.CoarseKey(), 0.5))
	}
	return nil
}
