package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
)

// This file is the property-based correctness harness of TESTING.md: 100
// seeded scenarios checked for invariants under churn, a three-way
// differential oracle pinning the periodic, lazy and asynchronous schedules
// to each other, and a ≥1000-peer churn scenario.

// TestHundredSeedChurnInvariants replays 100 generated churn scenarios —
// peers joining and leaving, mappings added, removed, corrupted and fixed,
// epochs with message loss — with every invariant and the scratch
// differential enabled. No seed may produce a single violation.
func TestHundredSeedChurnInvariants(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := GenConfig{
			Seed:   int64(seed),
			Peers:  12,
			Epochs: 4,
			Events: 4,
			Verify: true,
		}
		if seed%3 == 0 {
			cfg.PSend = 0.9 // every third scenario detects under message loss
		}
		sc, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		s, err := New(sc)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Violations != 0 {
			t.Errorf("seed %d: %d invariant violations: %s", seed, res.Violations, collectViolations(res))
		}
	}
}

// TestTransportChurnInvariants replays generated churn scenarios — loss
// epochs included — over every stepped transport and requires (a) zero
// invariant violations on each, and (b) bit-identical traces across them:
// the sharded parallel simulator and the TCP loopback must be
// indistinguishable from the reference Simulator at the trace level. The
// fourth transport, the asynchronous Bus, is pinned to the same fixed
// points by the schedule differential below (RunDetectionAsync).
func TestTransportChurnInvariants(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := GenConfig{
			Seed:   int64(100 + seed),
			Peers:  12,
			Epochs: 3,
			Events: 3,
			Verify: true,
		}
		if seed%2 == 0 {
			cfg.PSend = 0.85
		}
		sc, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		var ref *Result
		for _, tr := range []struct {
			kind   string
			shards int
		}{
			{"sim", 0}, {"sharded", 0}, {"sharded", 3}, {"tcp", 0},
		} {
			sc := sc
			sc.Transport = tr.kind
			sc.Shards = tr.shards
			s, err := New(sc)
			if err != nil {
				t.Fatalf("seed %d %s: build: %v", seed, tr.kind, err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("seed %d %s: run: %v", seed, tr.kind, err)
			}
			if res.Violations != 0 {
				t.Errorf("seed %d %s/%d: %d violations: %s",
					seed, tr.kind, tr.shards, res.Violations, collectViolations(res))
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Digest != ref.Digest {
				t.Errorf("seed %d %s/%d: digest %s differs from simulator digest %s",
					seed, tr.kind, tr.shards, res.Digest, ref.Digest)
			}
			if fmt.Sprint(res.Epochs) != fmt.Sprint(ref.Epochs) {
				t.Errorf("seed %d %s/%d: epoch trace differs from the simulator's",
					seed, tr.kind, tr.shards)
			}
		}
	}
}

// maxDiff is the largest pairwise posterior difference between two results.
func maxDiff(a, b map[graph.EdgeID]map[schema.Attribute]float64) float64 {
	max := 0.0
	for m, attrs := range a {
		for at, v := range attrs {
			if d := math.Abs(v - core.AttrPosterior(b, m, at, -1)); d > max {
				max = d
			}
		}
	}
	for m, attrs := range b {
		for at := range attrs {
			if _, ok := a[m][at]; !ok {
				return 1 // variable sets differ outright
			}
		}
	}
	return max
}

// TestHundredSeedScheduleDifferential is the three-way differential oracle:
// on 100 seeded static scenarios the periodic schedule (RunDetection), the
// piggybacking schedule (RunLazy) and the asynchronous goroutine-per-peer
// schedule (RunDetectionAsync) must land on the same posteriors within 1e-6
// — three independent implementations of §4.3 pinned to one fixed point.
func TestHundredSeedScheduleDifferential(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		// Static, strongly connected necklace overlays: every peer is
		// reachable from every origin (the lazy schedule needs the query
		// flow), and the factor graph is a forest, so belief propagation
		// has a unique fixed point — any divergence between the three
		// schedules is an implementation bug, never a loopy-BP artifact.
		sc := Scenario{
			Name:     fmt.Sprintf("diff-%d", seed),
			Seed:     int64(seed),
			Topology: "necklace",
			Peers:    12,
			Corrupt:  0.2,
			Epochs:   []Epoch{{}}, // one static epoch
		}
		s, err := New(sc)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		net := s.Network()
		attr := schema.Attribute(s.sc.AnalysisAttr)

		net.ResetMessages()
		det, err := net.RunDetection(core.DetectOptions{MaxRounds: 2000, Tolerance: 1e-10})
		if err != nil {
			t.Fatalf("seed %d: detect: %v", seed, err)
		}

		net.ResetMessages()
		rng := rand.New(rand.NewSource(int64(seed)))
		peers := net.Peers()
		workload := make([]core.LazyQuery, 6000)
		for i := range workload {
			p := peers[rng.Intn(len(peers))]
			workload[i] = core.LazyQuery{
				Origin: p.ID(),
				Query:  query.MustNew(p.Schema(), query.Op{Kind: query.Project, Attr: attr}),
			}
		}
		lazy, err := net.RunLazy(workload, core.LazyOptions{Tolerance: 1e-10, StableQueries: 50})
		if err != nil {
			t.Fatalf("seed %d: lazy: %v", seed, err)
		}

		net.ResetMessages()
		async, err := net.RunDetectionAsync(core.AsyncOptions{Ticks: 400, Tolerance: 1e-10})
		if err != nil {
			t.Fatalf("seed %d: async: %v", seed, err)
		}

		if d := maxDiff(det.Posteriors, lazy.Posteriors); d > 1e-6 {
			t.Errorf("seed %d: detect vs lazy diverge by %.2e", seed, d)
		}
		if d := maxDiff(det.Posteriors, async.Posteriors); d > 1e-6 {
			t.Errorf("seed %d: detect vs async diverge by %.2e", seed, d)
		}
		if d := maxDiff(lazy.Posteriors, async.Posteriors); d > 1e-6 {
			t.Errorf("seed %d: lazy vs async diverge by %.2e", seed, d)
		}
	}
}

// TestThousandPeerChurnInvariants: the invariants hold on a generated
// scenario with over 1000 peers under churn, including the scratch
// differential that revalidates the incrementally maintained evidence
// against full rediscovery.
func TestThousandPeerChurnInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("large scenario skipped in -short mode")
	}
	sc, err := Generate(GenConfig{
		Seed:    2026,
		Peers:   1020, // headroom: churn may remove peers, the floor is 1000
		Epochs:  3,
		Events:  8,
		Queries: 5,
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.Peers < 1000 {
		t.Fatalf("final network has %d peers, want >= 1000", last.Peers)
	}
	if res.Violations != 0 {
		t.Errorf("%d invariant violations: %s", res.Violations, collectViolations(res))
	}
	if last.CoveredCorrupt == 0 || last.CoveredClean == 0 {
		t.Errorf("degenerate coverage: %d corrupt, %d clean", last.CoveredCorrupt, last.CoveredClean)
	}
	if last.MeanCorrupt >= last.MeanClean {
		t.Errorf("mean posterior of corrupted (%.4f) not below clean (%.4f)", last.MeanCorrupt, last.MeanClean)
	}
}

// TestInvariantCheckerDetectsViolations: the harness itself is tested — a
// cooked result with out-of-range and mis-ranked posteriors must trip the
// checkers (a harness that can't fail proves nothing).
func TestInvariantCheckerDetectsViolations(t *testing.T) {
	// Seed 8 yields both an unambiguously incriminated corrupted mapping
	// and positively supported clean ones, so the ranking check is armed.
	s, err := New(Scenario{Peers: 8, Seed: 8, Corrupt: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.net.Discover(s.discoverCfg()); err != nil {
		t.Fatal(err)
	}
	det, err := s.net.RunDetection(core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the result: flip every posterior so corrupted mappings rank
	// above clean ones, and push one value out of range — on a *corrupted*
	// mapping, deterministically chosen, so the oversized value inflates
	// the corrupted mean and can never mask the ranking violation (map
	// iteration order must not decide what this test checks).
	for m, attrs := range det.Posteriors {
		for a, p := range attrs {
			det.Posteriors[m][a] = 1 - p
		}
	}
	broke := false
	for _, id := range s.liveMappings() {
		m := graph.EdgeID(id)
		if !s.corrupted[m] {
			continue
		}
		for a := range det.Posteriors[m] {
			det.Posteriors[m][a] = 1.5
			broke = true
			break
		}
		if broke {
			break
		}
	}
	if !broke {
		t.Fatal("seed yielded no covered corrupted mapping to cook")
	}
	viol := s.checkInvariants(det)
	if len(viol) == 0 {
		t.Fatal("cooked result produced no violations")
	}
	var haveRange, haveRank bool
	for _, v := range viol {
		if len(v) >= 9 && v[:9] == "posterior" {
			haveRange = true
		}
		if len(v) >= 7 && v[:7] == "ranking" {
			haveRank = true
		}
	}
	if !haveRange || !haveRank {
		t.Errorf("missing checker coverage (range=%v rank=%v): %v", haveRange, haveRank, viol)
	}
}

// TestScratchDifferentialDetectsDrift: silently desynchronizing the
// maintained network from the rebuild spec must trip the differential.
func TestScratchDifferentialDetectsDrift(t *testing.T) {
	s, err := New(Scenario{Peers: 8, Seed: 4, Corrupt: 0.2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.net.Discover(s.discoverCfg()); err != nil {
		t.Fatal(err)
	}
	det, err := s.net.RunDetection(core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if viol := s.checkScratchDifferential(det, 0, true); len(viol) != 0 {
		t.Fatalf("healthy state tripped the differential: %v", viol)
	}
	// Drop a mapping behind the spec's back: the rebuilt network still has
	// it, so the digests must diverge.
	victim := graph.EdgeID(s.liveMappings()[0])
	s.net.RemoveMapping(victim)
	if viol := s.checkScratchDifferential(det, 0, true); len(viol) == 0 {
		t.Fatal("desynchronized state passed the differential")
	}
	// Restore spec consistency for completeness.
	delete(s.specs, victim)
	delete(s.corrupted, victim)
}

// TestRouteVerifierDetectsGateBreach: the route check is full equality with
// the reference walk, so it must flag an unsound route (a sub-θ mapping
// crossed) and every incomplete one — a reachable visit dropped, two visits
// reordered, a gate count off by one — while the snapshot's own route passes.
func TestRouteVerifierDetectsGateBreach(t *testing.T) {
	s, err := New(Scenario{Peers: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.net.Discover(s.discoverCfg()); err != nil {
		t.Fatal(err)
	}
	det, err := s.net.RunDetection(core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	attr := schema.Attribute(s.sc.AnalysisAttr)
	snap := s.net.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: s.sc.Theta})

	// An origin whose honest route is long enough to drop from and reorder.
	var origin graph.PeerID
	var q query.Query
	var honest core.RouteResult
	for _, p := range s.net.Peers() {
		q = query.MustNew(p.Schema(), query.Op{Kind: query.Project, Attr: attr})
		res, err := snap.RouteQuery(p.ID(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Visits) >= 3 {
			origin, honest = p.ID(), res
			break
		}
	}
	if origin == "" {
		t.Fatal("no origin reaches three peers")
	}
	if viol := s.verifyRoute(snap, det, origin, q, honest); len(viol) != 0 {
		t.Fatalf("the snapshot's own route failed verification: %v", viol)
	}

	visits := func(edit func(v []core.Visit) []core.Visit) core.RouteResult {
		r := honest
		r.Visits = edit(append([]core.Visit(nil), honest.Visits...))
		return r
	}
	// The sub-θ row walks an arbitrary real mapping from its source while
	// the mapping's posterior is forced to zero.
	e := s.net.Topology().Edges()[0]
	zeroed := core.DetectResult{Posteriors: map[graph.EdgeID]map[schema.Attribute]float64{e.ID: {attr: 0}}}
	ep, _ := s.net.Peer(e.From)
	eq := query.MustNew(ep.Schema(), query.Op{Kind: query.Project, Attr: attr})

	cases := []struct {
		name   string
		det    core.DetectResult
		origin graph.PeerID
		q      query.Query
		forged core.RouteResult
	}{
		{"crosses a sub-θ mapping", zeroed, e.From, eq,
			core.RouteResult{Visits: []core.Visit{{Peer: e.From, Query: eq}, {Peer: e.To, Query: eq, Via: []graph.EdgeID{e.ID}}}}},
		{"drops a reachable visit", det, origin, q,
			visits(func(v []core.Visit) []core.Visit { return v[:len(v)-1] })},
		{"reorders two visits", det, origin, q,
			visits(func(v []core.Visit) []core.Visit { v[1], v[2] = v[2], v[1]; return v })},
		{"Blocked off by one", det, origin, q,
			core.RouteResult{Visits: honest.Visits, Blocked: honest.Blocked + 1, DroppedAttr: honest.DroppedAttr}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if viol := s.verifyRoute(snap, tc.det, tc.origin, tc.q, tc.forged); len(viol) == 0 {
				t.Fatal("forged route passed verification")
			}
		})
	}
}

func init() {
	// Guard against accidental quadratic blowup in scenario generation: a
	// generated scenario must replay standalone (fresh Simulation) exactly
	// as the generator's shadow applied it; a mismatch would surface as an
	// apply error in every harness test above.
	if _, err := Generate(GenConfig{Seed: 1}); err != nil {
		panic(fmt.Sprintf("sim: self-check failed: %v", err))
	}
}
