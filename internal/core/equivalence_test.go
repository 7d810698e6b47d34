package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/factorgraph"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/schema"
)

// randomPDMS builds a random directed PDMS over a shared seven-attribute
// schema: an Erdős–Rényi topology whose mappings are identities except for
// a random subset corrupted by swapping a0/a1.
func randomPDMS(rng *rand.Rand) *core.Network {
	attrs := make([]schema.Attribute, 7)
	for i := range attrs {
		attrs[i] = schema.Attribute(fmt.Sprintf("a%d", i))
	}
	nPeers := 4 + rng.Intn(3)
	net := core.NewNetwork(true)
	for i := 0; i < nPeers; i++ {
		net.MustAddPeer(graph.PeerID(fmt.Sprintf("p%d", i)), schema.MustNew(fmt.Sprintf("S%d", i), attrs...))
	}
	identity := make(map[schema.Attribute]schema.Attribute)
	swapped := make(map[schema.Attribute]schema.Attribute)
	for _, a := range attrs {
		identity[a] = a
		swapped[a] = a
	}
	swapped["a0"], swapped["a1"] = "a1", "a0"
	e := 0
	for i := 0; i < nPeers; i++ {
		for j := 0; j < nPeers; j++ {
			if i == j || rng.Float64() > 0.4 {
				continue
			}
			pairs := identity
			if rng.Float64() < 0.25 {
				pairs = swapped
			}
			net.MustAddMapping(graph.EdgeID(fmt.Sprintf("e%d", e)),
				graph.PeerID(fmt.Sprintf("p%d", i)), graph.PeerID(fmt.Sprintf("p%d", j)), pairs)
			e++
		}
	}
	return net
}

// TestProbeEqualsStructuralOnRandomNetworksProperty: on arbitrary random
// directed PDMS, probe flooding and structural enumeration must discover the
// same evidence and detection must produce bit-identical posteriors.
func TestProbeEqualsStructuralOnRandomNetworksProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomPDMS(rand.New(rand.NewSource(seed)))
		b := randomPDMS(rand.New(rand.NewSource(seed)))
		repA, err := a.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1)
		if err != nil {
			return false
		}
		repB, err := b.DiscoverByProbes([]schema.Attribute{"a0"}, 4, 0.1)
		if err != nil {
			return false
		}
		if repA.Positive != repB.Positive || repA.Negative != repB.Negative {
			t.Logf("seed %d: reports differ: %+v vs %+v", seed, repA, repB)
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
		for m, attrs := range ra.Posteriors {
			for at, v := range attrs {
				if v != rb.Posterior(m, at, -1) {
					t.Logf("seed %d: posterior[%s,%s] differs", seed, m, at)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDecentralizedEqualsCentralizedOnRandomNetworksProperty: the embedded
// scheme matches the centralized engine on arbitrary random PDMS.
func TestDecentralizedEqualsCentralizedOnRandomNetworksProperty(t *testing.T) {
	f := func(seed int64) bool {
		const rounds = 13
		net := randomPDMS(rand.New(rand.NewSource(seed)))
		if _, err := net.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			return false
		}
		res, err := net.RunDetection(core.DetectOptions{
			DefaultPrior: 0.6, MaxRounds: rounds, Tolerance: 1e-300,
		})
		if err != nil {
			return false
		}
		an, err := feedback.Analyze("a0", net.Topology(), net.Resolver(), 4)
		if err != nil {
			return false
		}
		fg, err := feedback.BuildFactorGraph(an, func(graph.EdgeID) float64 { return 0.6 }, 0.1)
		if err != nil {
			return false
		}
		ref, err := fg.Run(factorgraph.Options{MaxIterations: rounds, Tolerance: 1e-300})
		if err != nil {
			return false
		}
		for name, want := range ref.Posteriors {
			got := res.Posterior(graph.EdgeID(name), "a0", -1)
			if math.Abs(got-want) > 1e-9 {
				t.Logf("seed %d: %s decentralized %.12f vs centralized %.12f", seed, name, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDetectionDeterminism: identical inputs give bit-identical outputs.
func TestDetectionDeterminism(t *testing.T) {
	run := func() map[graph.EdgeID]map[schema.Attribute]float64 {
		net := randomPDMS(rand.New(rand.NewSource(99)))
		if _, err := net.DiscoverStructural([]schema.Attribute{"a0", "a1"}, 4, 0.1); err != nil {
			t.Fatal(err)
		}
		res, err := net.RunDetection(core.DetectOptions{MaxRounds: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res.Posteriors
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic mapping set")
	}
	for m, attrs := range a {
		for at, v := range attrs {
			if b[m][at] != v {
				t.Fatalf("nondeterministic posterior[%s,%s]: %v vs %v", m, at, v, b[m][at])
			}
		}
	}
}

// TestLossDeterminism: the same seed reproduces a lossy run exactly.
func TestLossDeterminism(t *testing.T) {
	run := func() core.DetectResult {
		net := randomPDMS(rand.New(rand.NewSource(7)))
		if _, err := net.DiscoverStructural([]schema.Attribute{"a0"}, 4, 0.1); err != nil {
			t.Fatal(err)
		}
		res, err := net.RunDetection(core.DetectOptions{
			MaxRounds: 500, PSend: 0.5, Seed: 1234,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Transport != b.Transport {
		t.Errorf("nondeterministic lossy run: %+v vs %+v", a.Transport, b.Transport)
	}
	for m, attrs := range a.Posteriors {
		for at, v := range attrs {
			if b.Posteriors[m][at] != v {
				t.Fatalf("nondeterministic posterior under loss")
			}
		}
	}
}
