package core

// In-package tests for the convergence measure of the lockstep schedule: the
// largest posterior move folded while the variables refresh must decide
// exactly what a diff of consecutive whole-network posterior maps decides,
// and a steady-state round must not allocate per variable.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
)

// posteriorDelta is the reference convergence measure: the largest absolute
// difference between two posterior maps (the per-round map diff RunDetection
// used to compute).
func posteriorDelta(a, b map[graph.EdgeID]map[schema.Attribute]float64) float64 {
	max := 0.0
	for m, mb := range b {
		ma := a[m]
		for attr, pb := range mb {
			pa, ok := ma[attr]
			if !ok {
				pa = 0.5
			}
			if d := math.Abs(pa - pb); d > max {
				max = d
			}
		}
	}
	return max
}

// oracleOverlay builds one seeded overlay of the given family — "ba"
// (undirected preferential attachment), "ring" (directed ring plus forward
// chords) or "necklace" (directed 3-cycles chained by bridges) — over a
// shared schema, swaps a/b on a quarter of the mappings and discovers the
// structural evidence for attribute a.
func oracleOverlay(t *testing.T, family string, seed int64) *Network {
	t.Helper()
	const peers = 12
	rng := rand.New(rand.NewSource(seed))
	peer := func(i int) graph.PeerID { return graph.PeerID(fmt.Sprintf("p%d", i%peers)) }
	var topo *graph.Graph
	switch family {
	case "ba":
		g, err := graph.BarabasiAlbert(peers, 2, false, rng)
		if err != nil {
			t.Fatal(err)
		}
		topo = g
	case "ring":
		g, err := graph.Ring(peers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < peers; i++ {
			if rng.Float64() < 0.7 {
				g.MustAddEdge(graph.EdgeID(fmt.Sprintf("c%d", i)), peer(i), peer(i+2+rng.Intn(2)))
			}
		}
		topo = g
	case "necklace":
		topo = graph.NewDirected()
		for b := 0; b < peers; b += 3 {
			for i := 0; i < 3; i++ {
				topo.MustAddEdge(graph.EdgeID(fmt.Sprintf("m%d", b+i)), peer(b+i), peer(b+(i+1)%3))
			}
			topo.MustAddEdge(graph.EdgeID(fmt.Sprintf("b%d", b)), peer(b+2), peer(b+3))
		}
	}
	net := NewNetwork(topo.Directed())
	for _, p := range topo.Peers() {
		net.MustAddPeer(p, schema.MustNew("S"+string(p), "a", "b", "c"))
	}
	for _, e := range topo.Edges() {
		pairs := map[schema.Attribute]schema.Attribute{"a": "a", "b": "b", "c": "c"}
		if rng.Float64() < 0.25 {
			pairs["a"], pairs["b"] = "b", "a"
		}
		net.MustAddMapping(e.ID, e.From, e.To, pairs)
	}
	if _, err := net.DiscoverStructural([]schema.Attribute{"a"}, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	return net
}

// maskedChain builds the one shape where the map diff and a plain per-variable
// measure part ways: a variable whose key is also ⊥-pinned. m1 carries no
// correspondence for a, so the ring's cycle pins (m1, a); feedback chains then
// hang a variable on the same key at the far end of a factor chain
// m3 — m2 — m0 — m1, where evidence arrives last. A full run reports the key as
// 0 throughout, so its late moves must not hold convergence back.
func maskedChain(t *testing.T) *Network {
	t.Helper()
	net := NewNetwork(true)
	for i := 0; i < 4; i++ {
		net.MustAddPeer(graph.PeerID(fmt.Sprintf("p%d", i)), schema.MustNew(fmt.Sprintf("S%d", i), "a", "b", "c"))
	}
	for i := 0; i < 4; i++ {
		pairs := map[schema.Attribute]schema.Attribute{"a": "a", "b": "b", "c": "c"}
		if i == 1 {
			delete(pairs, "a")
		}
		net.MustAddMapping(graph.EdgeID(fmt.Sprintf("m%d", i)),
			graph.PeerID(fmt.Sprintf("p%d", i)), graph.PeerID(fmt.Sprintf("p%d", (i+1)%4)), pairs)
	}
	if _, err := net.DiscoverStructural([]schema.Attribute{"a"}, 4, 0.1); err != nil {
		t.Fatal(err)
	}
	var obs []QueryFeedback
	for i := 0; i < 6; i++ {
		obs = append(obs, QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m3"}, Polarity: feedback.Negative})
	}
	obs = append(obs,
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m2", "m3"}, Polarity: feedback.Negative},
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0", "m2"}, Polarity: feedback.Negative},
		QueryFeedback{Attr: "a", Chain: []graph.EdgeID{"m0", "m1"}, Polarity: feedback.Negative},
	)
	if _, err := net.IngestFeedback(fbOpts, obs...); err != nil {
		t.Fatal(err)
	}
	key := varKey{Mapping: "m1", Attr: "a"}
	if p := net.peers["p1"]; p.pinned[key] == 0 || p.vars[key] == nil {
		t.Fatalf("m1/a must be both pinned (%d) and a variable (%v)", p.pinned[key], p.vars[key] != nil)
	}
	return net
}

// TestConvergenceMeasureOracle: a run's rounds and convergence verdict —
// decided on the largest posterior move folded during refresh — must be
// exactly what the StableRounds rule yields on the diff of consecutive traced
// whole-network posterior maps, and tracing must not change the run: same
// posteriors, remote messages and work counters. 50 seeds × three overlay
// families × {sim, sharded-3, lossy}, plus the pinned-variable chain.
func TestConvergenceMeasureOracle(t *testing.T) {
	transports := []struct {
		name string
		opts DetectOptions
	}{
		{"sim", DetectOptions{}},
		{"sharded-3", DetectOptions{Transport: network.KindSharded, Shards: 3}},
		{"psend-0.8", DetectOptions{PSend: 0.8}},
	}
	check := func(t *testing.T, name string, build func() *Network, opts DetectOptions) {
		t.Helper()
		opts.MaxRounds = 60
		traced, plain := build(), build()
		prev := traced.snapshotPosteriors(0.5)
		withDef, err := opts.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		wantRounds, wantConverged, stable := 0, false, 0
		topts := opts
		topts.Trace = func(round int, cur map[graph.EdgeID]map[schema.Attribute]float64) {
			if wantConverged {
				t.Errorf("%s: round %d traced after the map diff had converged", name, round)
			}
			wantRounds = round
			if posteriorDelta(prev, cur) < withDef.Tolerance {
				stable++
				wantConverged = stable >= withDef.StableRounds
			} else {
				stable = 0
			}
			prev = cur
		}
		tres, err := traced.RunDetection(topts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plain.RunDetection(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != wantRounds || res.Converged != wantConverged {
			t.Errorf("%s: run reports %d rounds, converged=%v; the map diff says %d, %v",
				name, res.Rounds, res.Converged, wantRounds, wantConverged)
		}
		if !reflect.DeepEqual(prev, res.Posteriors) {
			t.Errorf("%s: the last traced map differs from the reported posteriors", name)
		}
		if tres.Rounds != res.Rounds || tres.Converged != res.Converged ||
			tres.RemoteMessages != res.RemoteMessages || tres.Work != res.Work ||
			!reflect.DeepEqual(tres.Posteriors, res.Posteriors) {
			t.Errorf("%s: tracing changed the run: %d/%v/%d/%+v vs %d/%v/%d/%+v", name,
				tres.Rounds, tres.Converged, tres.RemoteMessages, tres.Work,
				res.Rounds, res.Converged, res.RemoteMessages, res.Work)
		}
	}
	for _, tp := range transports {
		t.Run(tp.name, func(t *testing.T) {
			for _, family := range []string{"ba", "ring", "necklace"} {
				for seed := int64(0); seed < 50; seed++ {
					opts := tp.opts
					opts.Seed = seed
					check(t, fmt.Sprintf("%s seed %d", family, seed),
						func() *Network { return oracleOverlay(t, family, seed) }, opts)
				}
			}
			check(t, "pinned chain", func() *Network { return maskedChain(t) }, tp.opts)
		})
	}
}

// TestDetectionRoundAllocsConstant: a steady-state lockstep round allocates a
// constant, not per variable. Every factor here is peer-local (single-mapping
// feedback chains), so a round emits no frame and what is left is the round's
// own bookkeeping — the same for 100 and for 1,000 variables.
func TestDetectionRoundAllocsConstant(t *testing.T) {
	perRound := func(vars int) float64 {
		net := feedbackRing(t, vars)
		obs := make([]QueryFeedback, vars)
		for i := range obs {
			obs[i] = QueryFeedback{Attr: "a", Chain: []graph.EdgeID{graph.EdgeID(fmt.Sprintf("m%d", i))}, Polarity: feedback.Positive}
		}
		if _, err := net.IngestFeedback(fbOpts, obs...); err != nil {
			t.Fatal(err)
		}
		// More stable rounds than MaxRounds can never be met: the run spends
		// exactly MaxRounds.
		run := func(rounds int) float64 {
			return testing.AllocsPerRun(5, func() {
				res, err := net.RunDetection(DetectOptions{MaxRounds: rounds, StableRounds: rounds + 1})
				if err != nil || res.Rounds != rounds || res.TouchedVars != vars || res.RemoteMessages != 0 {
					t.Fatalf("%d vars: run %+v, err %v", vars, res, err)
				}
			})
		}
		return (run(110) - run(10)) / 100
	}
	small, large := perRound(100), perRound(1000)
	if small != large || small > 16 {
		t.Errorf("allocations per steady-state round: %v with 100 variables, %v with 1,000 (want equal and small)", small, large)
	}
}

// triangles builds n disjoint directed 3-cycles of identity mappings, three
// peers each, and discovers their evidence: every factor spans three peers, so
// every variable sends two frames a round.
func triangles(t *testing.T, n int) *Network {
	t.Helper()
	net := NewNetwork(true)
	peer := func(i int) graph.PeerID { return graph.PeerID(fmt.Sprintf("p%d", i)) }
	for i := 0; i < 3*n; i++ {
		net.MustAddPeer(peer(i), schema.MustNew(fmt.Sprintf("S%d", i), "a", "b"))
	}
	for i := 0; i < 3*n; i++ {
		next := i - i%3 + (i+1)%3
		net.MustAddMapping(graph.EdgeID(fmt.Sprintf("m%d", i)), peer(i), peer(next),
			map[schema.Attribute]schema.Attribute{"a": "a", "b": "b"})
	}
	if _, err := net.DiscoverStructural([]schema.Attribute{"a"}, 3, 0.1); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestDetectionRoundFramesAllocsConstant: a steady-state round whose frames
// really cross the transport — encoded into the round's arena, delivered and
// decoded in place — allocates a constant, not per frame: the same at 30 and
// at 300 triangles, and on the one-shard simulator no more than the peer-local
// rounds of TestDetectionRoundAllocsConstant. The sharded simulator's workers
// add a constant of their own. The collector is off while it counts: a
// garbage-collection cycle makes allocations of its own, which would land in
// whichever run it happens to interrupt.
func TestDetectionRoundFramesAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perRound := func(opts DetectOptions, n int) float64 {
		net := triangles(t, n)
		run := func(rounds int) float64 {
			o := opts
			o.MaxRounds, o.StableRounds = rounds, rounds+1
			return testing.AllocsPerRun(5, func() {
				res, err := net.RunDetection(o)
				if err != nil || res.Rounds != rounds || res.RemoteMessages != 6*n*rounds || res.Transport.Delivered != res.RemoteMessages {
					t.Fatalf("%d triangles: run %+v, err %v", n, res, err)
				}
			})
		}
		return (run(110) - run(10)) / 100
	}
	for _, tc := range []struct {
		name string
		opts DetectOptions
		max  float64
	}{
		{"sim", DetectOptions{}, 16},
		{"sharded-2", DetectOptions{Transport: network.KindSharded, Shards: 2}, math.Inf(1)},
	} {
		small, large := perRound(tc.opts, 30), perRound(tc.opts, 300)
		if small != large || small > tc.max {
			t.Errorf("%s: allocations per steady-state round: %v with 30 triangles, %v with 300 (want equal, ≤ %v)", tc.name, small, large, tc.max)
		}
	}
}
