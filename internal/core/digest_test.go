package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/schema"
	"repro/internal/sim"
)

// TestDigestMatchesFmtRendering pins RoutingSnapshot.Digest, which renders
// into one reused buffer, to the fmt.Fprintf rendering it replaced: on the
// paper's introductory network, on a generated 1000-peer overlay under a
// per-attribute θ policy, and on a delta-published snapshot and its
// from-scratch twin.
func TestDigestMatchesFmtRendering(t *testing.T) {
	check := func(name string, snap *core.RoutingSnapshot) {
		t.Helper()
		if got, want := snap.Digest(), snap.FmtDigest(); got != want {
			t.Errorf("%s: Digest %s, fmt rendering %s", name, got, want)
		}
	}

	intro := paper.IntroNetwork()
	det, err := intro.RunDetection(core.DetectOptions{MaxRounds: 30})
	if err != nil {
		t.Fatal(err)
	}
	check("intro", intro.PublishSnapshot(det, core.SnapshotOptions{}))

	sc, err := sim.Generate(sim.GenConfig{Seed: 2, Peers: 1000, Epochs: 1, Events: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Network()
	attrs := s.Attributes()
	if _, err := n.DiscoverStructural(attrs[:1], 4, 0.1); err != nil {
		t.Fatal(err)
	}
	opts := core.SnapshotOptions{Theta: map[schema.Attribute]float64{attrs[0]: 0.6, attrs[1]: 0}, MaxHops: 6}
	first, err := n.RunDetection(core.DetectOptions{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("1k overlay", n.PublishSnapshot(first, opts))

	more, err := n.RunDetection(core.DetectOptions{MaxRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	delta := n.PublishSnapshot(more, opts)
	if delta.Delta() == nil || delta.Delta().Rebuilt() == 0 {
		t.Fatalf("second publication is not a delta that rebuilt edges: %+v", delta.Delta())
	}
	check("1k delta", delta)
	full := opts
	full.ForceFull = true
	twin := n.PublishSnapshot(more, full)
	check("1k full twin", twin)
	if delta.Digest() != twin.Digest() {
		t.Error("delta-published snapshot and its full twin digest differently")
	}
}
