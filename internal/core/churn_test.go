package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/paper"
	"repro/internal/schema"
)

func digestEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func maxPosteriorDiff(a, b map[graph.EdgeID]map[schema.Attribute]float64) float64 {
	max := 0.0
	for m, attrs := range a {
		for at, v := range attrs {
			if d := math.Abs(v - core.DetectResult{Posteriors: b}.Posterior(m, at, -1)); d > max {
				max = d
			}
		}
	}
	for m, attrs := range b {
		for at, v := range attrs {
			if d := math.Abs(v - core.DetectResult{Posteriors: a}.Posterior(m, at, -1)); d > max {
				max = d
			}
		}
	}
	return max
}

// TestRemoveMappingRetractsEvidence: removing a mapping after discovery must
// leave exactly the inference state of a network that never had the mapping
// discovered — same evidence, same variables, same pins, same posteriors.
func TestRemoveMappingRetractsEvidence(t *testing.T) {
	f := func(seed int64) bool {
		a := randomPDMS(rand.New(rand.NewSource(seed)))
		b := randomPDMS(rand.New(rand.NewSource(seed)))
		edges := a.Topology().Edges()
		if len(edges) == 0 {
			return true
		}
		victim := edges[int(uint64(seed)%uint64(len(edges)))].ID

		// a: discover, then churn. b: churn, then discover from scratch.
		if _, err := a.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			return false
		}
		a.RemoveMapping(victim)
		b.RemoveMapping(victim)
		if _, err := b.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			return false
		}
		if !digestEqual(a.InferenceDigest(), b.InferenceDigest()) {
			t.Logf("seed %d: digests diverge after removing %s", seed, victim)
			return false
		}
		ra, err := a.RunDetection(core.DetectOptions{MaxRounds: 30, Tolerance: 1e-300})
		if err != nil {
			return false
		}
		rb, err := b.RunDetection(core.DetectOptions{MaxRounds: 30, Tolerance: 1e-300})
		if err != nil {
			return false
		}
		if d := maxPosteriorDiff(ra.Posteriors, rb.Posteriors); d > 1e-9 {
			t.Logf("seed %d: posteriors diverge by %v", seed, d)
			return false
		}
		if _, ok := ra.Posteriors[victim]; ok {
			t.Logf("seed %d: removed mapping %s still reported", seed, victim)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRemovePeerRetractsEvidence: a peer leaving must retract its mappings
// and all evidence through them, matching a from-scratch network without it.
func TestRemovePeerRetractsEvidence(t *testing.T) {
	f := func(seed int64) bool {
		a := randomPDMS(rand.New(rand.NewSource(seed)))
		b := randomPDMS(rand.New(rand.NewSource(seed)))
		victim := graph.PeerID(fmt.Sprintf("p%d", int(uint64(seed)%uint64(a.NumPeers()))))

		if _, err := a.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			return false
		}
		removed := a.RemovePeer(victim)
		b.RemovePeer(victim)
		if _, err := b.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			return false
		}
		if _, ok := a.Peer(victim); ok {
			return false
		}
		for _, id := range removed {
			if _, ok := a.Mapping(id); ok {
				t.Logf("seed %d: mapping %s survived its peer", seed, id)
				return false
			}
		}
		if !digestEqual(a.InferenceDigest(), b.InferenceDigest()) {
			t.Logf("seed %d: digests diverge after removing %s", seed, victim)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalDiscoveryMatchesScratch: adding mappings plus
// DiscoverIncremental must equal a full Discover on the final topology, both
// structurally and in the posteriors detection then produces.
func TestIncrementalDiscoveryMatchesScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPDMS(rand.New(rand.NewSource(seed)))
		b := randomPDMS(rand.New(rand.NewSource(seed)))

		// Pick an extra identity mapping between two random distinct peers.
		np := a.NumPeers()
		i := rng.Intn(np)
		j := (i + 1 + rng.Intn(np-1)) % np
		from := graph.PeerID(fmt.Sprintf("p%d", i))
		to := graph.PeerID(fmt.Sprintf("p%d", j))
		pf, _ := a.Peer(from)
		pairs := core.IdentityPairs(pf.Schema())

		cfg := core.DiscoverConfig{Attrs: []schema.Attribute{"a0"}, MaxLen: 4, Delta: 0.1}
		if _, err := a.Discover(cfg); err != nil {
			return false
		}
		if _, err := a.AddMapping("extra", from, to, pairs); err != nil {
			return false
		}
		if _, err := a.DiscoverIncremental(cfg, "extra"); err != nil {
			return false
		}

		if _, err := b.AddMapping("extra", from, to, pairs); err != nil {
			return false
		}
		if _, err := b.Discover(cfg); err != nil {
			return false
		}

		if !digestEqual(a.InferenceDigest(), b.InferenceDigest()) {
			t.Logf("seed %d: incremental digest diverges from scratch", seed)
			return false
		}
		ra, err := a.RunDetection(core.DetectOptions{MaxRounds: 30, Tolerance: 1e-300})
		if err != nil {
			return false
		}
		rb, err := b.RunDetection(core.DetectOptions{MaxRounds: 30, Tolerance: 1e-300})
		if err != nil {
			return false
		}
		if d := maxPosteriorDiff(ra.Posteriors, rb.Posteriors); d > 1e-9 {
			t.Logf("seed %d: posteriors diverge by %v", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestMappingRevisionIncremental: corrupting a mapping in place (remove +
// re-add under the same ID + incremental discovery) matches scratch.
func TestMappingRevisionIncremental(t *testing.T) {
	cfg := core.DiscoverConfig{Attrs: []schema.Attribute{paper.Creator}, MaxLen: 6, Delta: paper.Delta}

	a := paper.IntroNetwork()
	if _, err := a.Discover(cfg); err != nil {
		t.Fatal(err)
	}
	before, err := a.RunDetection(core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// p2 fixes the faulty m24 in place.
	a.RemoveMapping("m24")
	p2, _ := a.Peer("p2")
	if _, err := a.AddMapping("m24", "p2", "p4", core.IdentityPairs(p2.Schema())); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DiscoverIncremental(cfg, "m24"); err != nil {
		t.Fatal(err)
	}

	b := paper.IntroNetwork()
	b.RemoveMapping("m24")
	bp2, _ := b.Peer("p2")
	if _, err := b.AddMapping("m24", "p2", "p4", core.IdentityPairs(bp2.Schema())); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Discover(cfg); err != nil {
		t.Fatal(err)
	}

	if !digestEqual(a.InferenceDigest(), b.InferenceDigest()) {
		t.Fatal("revision digest diverges from scratch")
	}
	a.ResetMessages()
	ra, err := a.RunDetection(core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunDetection(core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxPosteriorDiff(ra.Posteriors, rb.Posteriors); d > 1e-9 {
		t.Fatalf("posteriors diverge by %v after revision", d)
	}
	// The fixed mapping's belief must have recovered.
	if bad := before.Posterior("m24", paper.Creator, -1); bad >= 0.5 {
		t.Fatalf("faulty m24 posterior %v, want < 0.5", bad)
	}
	if good := ra.Posterior("m24", paper.Creator, -1); good <= 0.5 {
		t.Fatalf("fixed m24 posterior %v, want > 0.5", good)
	}
}

// TestPinRetractionOnChurn: a ⊥ pin is retracted when its justifying
// structure dissolves, and survives while another structure still pins it.
func TestPinRetractionOnChurn(t *testing.T) {
	attrs := paper.Attrs()
	id := core.IdentityPairs(schema.MustNew("tmp", attrs...))
	noCreator := make(map[schema.Attribute]schema.Attribute)
	for _, a := range attrs {
		if a != paper.Creator {
			noCreator[a] = a
		}
	}
	build := func() *core.Network {
		// Two cycles share the correspondence-free m34: p3→p4→p1→p2→p3 via
		// m41/m12/m23, and p3→p4→p2→p3 via m42/m23.
		n := core.NewNetwork(true)
		for _, p := range []graph.PeerID{"p1", "p2", "p3", "p4"} {
			n.MustAddPeer(p, schema.MustNew("S"+string(p[1]), attrs...))
		}
		n.MustAddMapping("m12", "p1", "p2", id)
		n.MustAddMapping("m23", "p2", "p3", id)
		n.MustAddMapping("m34", "p3", "p4", noCreator)
		n.MustAddMapping("m41", "p4", "p1", id)
		n.MustAddMapping("m42", "p4", "p2", id)
		return n
	}

	n := build()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	p3, _ := n.Peer("p3")
	if !p3.Pinned("m34", paper.Creator) {
		t.Fatal("m34 not pinned")
	}
	// Breaking the long cycle leaves the short one still pinning m34.
	n.RemoveMapping("m41")
	if !p3.Pinned("m34", paper.Creator) {
		t.Fatal("pin lost while the second structure still justifies it")
	}
	// Breaking the short cycle too retracts the pin.
	n.RemoveMapping("m42")
	if p3.Pinned("m34", paper.Creator) {
		t.Fatal("pin survived with no justifying structure")
	}

	// And the digest matches scratch discovery on the reduced topology.
	b := build()
	b.RemoveMapping("m41")
	b.RemoveMapping("m42")
	if _, err := b.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	if !digestEqual(n.InferenceDigest(), b.InferenceDigest()) {
		t.Fatal("digest diverges from scratch after pin churn")
	}
}

// TestDiscoverIncrementalErrors: configuration and unknown mappings are
// rejected.
func TestDiscoverIncrementalErrors(t *testing.T) {
	n := paper.IntroNetwork()
	cfg := core.DiscoverConfig{Attrs: []schema.Attribute{paper.Creator}, MaxLen: 6, Delta: paper.Delta}
	if _, err := n.DiscoverIncremental(cfg, "no-such-mapping"); err == nil {
		t.Error("unknown mapping: want error")
	}
	if _, err := n.DiscoverIncremental(core.DiscoverConfig{MaxLen: 1}, "m12"); err == nil {
		t.Error("bad config: want error")
	}
	rep, err := n.DiscoverIncremental(cfg)
	if err != nil || rep.Structures != 0 {
		t.Errorf("empty changed set: rep=%+v err=%v, want empty report", rep, err)
	}
}
