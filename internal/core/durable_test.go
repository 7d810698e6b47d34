package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/paper"
	"repro/internal/schema"
)

// durableNecklace builds two directed 3-cycles p0→p1→p2→p0 and p3→p4→p5→p3
// chained by bridges b2 (p2→p3) and b5 (p5→p0), m1 corrupted (a and b
// swapped), and discovers the structural evidence for a and b.
func durableNecklace(t *testing.T) *core.Network {
	t.Helper()
	n := core.NewNetwork(true)
	peer := func(i int) graph.PeerID { return graph.PeerID(fmt.Sprintf("p%d", i%6)) }
	for i := 0; i < 6; i++ {
		n.MustAddPeer(peer(i), schema.MustNew(fmt.Sprintf("S%d", i), "a", "b", "c"))
	}
	for b := 0; b < 6; b += 3 {
		for i := 0; i < 3; i++ {
			pairs := map[schema.Attribute]schema.Attribute{"a": "a", "b": "b", "c": "c"}
			if b+i == 1 {
				pairs["a"], pairs["b"] = "b", "a"
			}
			n.MustAddMapping(graph.EdgeID(fmt.Sprintf("m%d", b+i)), peer(b+i), peer(b+(i+1)%3), pairs)
		}
		n.MustAddMapping(graph.EdgeID(fmt.Sprintf("b%d", b+2)), peer(b+2), peer(b+3),
			map[schema.Attribute]schema.Attribute{"a": "a", "b": "b", "c": "c"})
	}
	if _, err := n.Discover(core.DiscoverConfig{Attrs: []schema.Attribute{"a", "b"}, MaxLen: 4, Delta: 0.1}); err != nil {
		t.Fatal(err)
	}
	return n
}

// verdicts builds count observations of one polarity by one reporter.
func verdicts(count int, reporter graph.PeerID, pol feedback.Polarity, attr schema.Attribute, chain ...graph.EdgeID) []core.QueryFeedback {
	out := make([]core.QueryFeedback, count)
	for i := range out {
		out[i] = core.QueryFeedback{Attr: attr, Chain: chain, Polarity: pol, Reporter: reporter}
	}
	return out
}

func introDiscovered(t *testing.T) (*core.Network, core.DiscoverConfig) {
	t.Helper()
	cfg := core.DiscoverConfig{Attrs: []schema.Attribute{paper.Creator}, MaxLen: 6, Delta: paper.Delta}
	n := paper.IntroNetwork()
	if _, err := n.Discover(cfg); err != nil {
		t.Fatal(err)
	}
	return n, cfg
}

// detectSeeded re-runs detection from reset messages with a fixed seed — the
// comparable posterior surface of a network.
func detectSeeded(t *testing.T, n *core.Network) core.DetectResult {
	t.Helper()
	n.ResetMessages()
	det, err := n.RunDetection(core.DetectOptions{MaxRounds: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestDurableStateRoundTrip pins the durability contract with no WAL in the
// loop: a network rebuilt by NewNetwork + Apply over DurableState()[1:] holds
// the same inference structure, priors, per-reporter tallies and trust, lands
// on bit-equal posteriors, and exports the same sequence again (the export
// is a canonical form).
func TestDurableStateRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *core.Network
	}{
		{"intro network", func(t *testing.T) *core.Network {
			n, _ := introDiscovered(t)
			return n
		}},
		{"undirected, never discovered", func(t *testing.T) *core.Network {
			return paper.Fig4Network()
		}},
		{"necklace, feedback from three reporters", func(t *testing.T) *core.Network {
			n := durableNecklace(t)
			var obs []core.QueryFeedback
			// Two reporters disagree on one chain the structure vouches for
			// (the dissenter is discounted); a third reports elsewhere.
			obs = append(obs, verdicts(6, "p0", feedback.Negative, "a", "m3")...)
			obs = append(obs, verdicts(6, "p1", feedback.Positive, "a", "m3")...)
			obs = append(obs, verdicts(2, "p5", feedback.Negative, "a", "m0", "m1")...)
			obs = append(obs, verdicts(1, "p0", feedback.Positive, "b", "m3", "m4")...)
			if _, err := n.IngestFeedback(core.FeedbackOptions{Noise: 0.1}, obs...); err != nil {
				t.Fatal(err)
			}
			// A second batch on the same chain: the tallies are the state.
			if _, err := n.IngestFeedback(core.FeedbackOptions{Noise: 0.1},
				verdicts(3, "p1", feedback.Positive, "a", "m3")...); err != nil {
				t.Fatal(err)
			}
			if tr := n.ReporterTrust("p0"); tr >= 1 {
				t.Fatalf("fixture: dissenter p0 holds trust %v, want it discounted", tr)
			}
			return n
		}},
		{"SetPrior and two CommitPriors", func(t *testing.T) *core.Network {
			n, _ := introDiscovered(t)
			p2, _ := n.Peer("p2")
			p2.SetPrior("m24", paper.Creator, 0.2)
			p2.SetPrior("m23", "Title", 0.9) // not a variable: still state
			n.CommitPriors(detectSeeded(t, n), 0.5)
			n.CommitPriors(detectSeeded(t, n), 0.5)
			return n
		}},
		{"RemoveMapping, re-add, DiscoverIncremental", func(t *testing.T) *core.Network {
			n, cfg := introDiscovered(t)
			n.RemoveMapping("m24")
			p4, _ := n.Peer("p4")
			n.MustAddMapping("m24", "p2", "p4", core.IdentityPairs(p4.Schema()))
			if _, err := n.DiscoverIncremental(cfg, "m24"); err != nil {
				t.Fatal(err)
			}
			return n
		}},
		{"departed reporter", func(t *testing.T) *core.Network {
			n := durableNecklace(t)
			n.MustAddPeer("p9", schema.MustNew("S9", "a", "b", "c"))
			var obs []core.QueryFeedback
			obs = append(obs, verdicts(2, "p9", feedback.Negative, "c", "m0")...)
			obs = append(obs, verdicts(1, "p9", feedback.Positive, "c", "m2")...)
			obs = append(obs, verdicts(1, "p4", feedback.Positive, "c", "m0")...)
			if _, err := n.IngestFeedback(core.FeedbackOptions{}, obs...); err != nil {
				t.Fatal(err)
			}
			n.RemovePeer("p9")
			return n
		}},
		{"one mapping still pending", func(t *testing.T) *core.Network {
			n, cfg := introDiscovered(t)
			p3, _ := n.Peer("p3")
			n.MustAddMapping("m31", "p3", "p1", core.IdentityPairs(p3.Schema()))
			if _, err := n.DiscoverIncremental(cfg, "m31"); err != nil {
				t.Fatal(err)
			}
			n.MustAddMapping("m13", "p1", "p3", core.IdentityPairs(p3.Schema()))
			return n
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			state := n.DurableState()
			if len(state) == 0 || state[0].Kind != core.MutInit || state[0].Directed != n.Directed() {
				t.Fatalf("export does not open with this network's MutInit: %+v", state)
			}
			r := core.NewNetwork(state[0].Directed)
			for i, m := range state[1:] {
				if err := r.Apply(m); err != nil {
					t.Fatalf("Apply record %d (%s): %v", i+1, m.Kind, err)
				}
			}

			if !digestEqual(n.InferenceDigest(), r.InferenceDigest()) {
				t.Errorf("inference digests differ:\n live    %v\n rebuilt %v", n.InferenceDigest(), r.InferenceDigest())
			}
			lf, lw := n.FeedbackFactors()
			if rf, rw := r.FeedbackFactors(); lf != rf || lw != rw {
				t.Errorf("feedback factors %d/%d, rebuilt %d/%d", lf, lw, rf, rw)
			}
			for _, p := range n.Peers() {
				if _, ok := r.Peer(p.ID()); !ok {
					t.Fatalf("peer %s missing from the rebuilt network", p.ID())
				}
				lf, lw := n.ReporterContribution(p.ID())
				rf, rw := r.ReporterContribution(p.ID())
				if lf != rf || lw != rw {
					t.Errorf("reporter %s contributes %d/%d, rebuilt %d/%d", p.ID(), lf, lw, rf, rw)
				}
				if lt, rt := n.ReporterTrust(p.ID()), r.ReporterTrust(p.ID()); lt != rt {
					t.Errorf("reporter %s trust %v, rebuilt %v", p.ID(), lt, rt)
				}
			}
			live, rebuilt := detectSeeded(t, n).Posteriors, detectSeeded(t, r).Posteriors
			if !reflect.DeepEqual(live, rebuilt) {
				t.Errorf("posteriors are not bit-equal:\n live    %v\n rebuilt %v", live, rebuilt)
			}
			for m, attrs := range live {
				lo, _ := n.Owner(m)
				ro, ok := r.Owner(m)
				if !ok {
					t.Fatalf("mapping %s has no owner in the rebuilt network", m)
				}
				for a := range attrs {
					if lp, rp := lo.PriorFor(m, a, -1), ro.PriorFor(m, a, -1); lp != rp {
						t.Errorf("prior %s/%s = %v, rebuilt %v", m, a, lp, rp)
					}
				}
			}
			if again := r.DurableState(); !reflect.DeepEqual(again, n.DurableState()) {
				t.Errorf("export is not idempotent:\n live    %+v\n rebuilt %+v", n.DurableState(), again)
			}
		})
	}
}

// TestFullDetectionConsumesFeedbackDirt: a full detection re-detects every
// variable, so it consumes the feedback dirty set just as an incremental run
// does. A network rebuilt from DurableState replays every feedback batch it
// ever took and so marks every chain ever fed back as dirty; after the full
// detection that follows recovery it must hold the live network's dirty set,
// and its next refresh must do the live network's work — none, when no new
// feedback arrived.
func TestFullDetectionConsumesFeedbackDirt(t *testing.T) {
	opts := core.DetectOptions{MaxRounds: 60, Tolerance: 1e-9}
	live := durableNecklace(t)
	if _, err := live.IngestFeedback(core.FeedbackOptions{Noise: 0.1},
		verdicts(3, "p1", feedback.Negative, "a", "m0", "m1")...); err != nil {
		t.Fatal(err)
	}
	refresh := opts
	refresh.Incremental = true
	if _, err := live.RunDetection(refresh); err != nil {
		t.Fatal(err)
	}

	state := live.DurableState()
	twin := core.NewNetwork(state[0].Directed)
	for i, m := range state[1:] {
		if err := twin.Apply(m); err != nil {
			t.Fatalf("Apply record %d (%s): %v", i+1, m.Kind, err)
		}
	}
	if twin.DirtyFeedbackVars() == 0 {
		t.Fatal("fixture: the rebuilt network marks no feedback variable dirty")
	}
	for _, n := range []*core.Network{live, twin} {
		n.ResetMessages()
		if _, err := n.RunDetection(opts); err != nil {
			t.Fatal(err)
		}
	}
	if l, r := live.DirtyFeedbackVars(), twin.DirtyFeedbackVars(); l != 0 || r != 0 {
		t.Errorf("dirty feedback variables after a full detection: live %d, rebuilt %d, want 0 and 0", l, r)
	}
	ld, err := live.RunDetection(refresh)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := twin.RunDetection(refresh)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Work != rd.Work {
		t.Errorf("next refresh work: live %+v, rebuilt %+v", ld.Work, rd.Work)
	}
}

// TestProbeDiscoveryDurableState: a probe-discovered network exports the
// pass it ran, so NewNetwork + Apply over DurableState()[1:] rebuilds its
// evidence — not an earlier pass's, and not none. Probe discovery builds
// exactly Discover's state at MaxLen = ttl (TestProbeDiscoveryBitIdentical),
// which is how the export names it; internal/wal's
// TestProbeDiscoveryRecovers holds recovery to bit-equal posteriors.
func TestProbeDiscoveryDurableState(t *testing.T) {
	attrs := []schema.Attribute{paper.Creator}
	for _, tc := range []struct {
		name  string
		lines int
		build func(n *core.Network) error
	}{
		{"probes alone", 14, func(n *core.Network) error {
			_, err := n.DiscoverByProbes(attrs, 6, paper.Delta)
			return err
		}},
		{"structural, then shorter probes", 10, func(n *core.Network) error {
			if _, err := n.DiscoverStructural(attrs, 6, paper.Delta); err != nil {
				return err
			}
			_, err := n.DiscoverByProbes(attrs, 3, paper.Delta)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := paper.IntroNetwork()
			if err := tc.build(n); err != nil {
				t.Fatal(err)
			}
			live := n.InferenceDigest()
			if len(live) != tc.lines {
				t.Fatalf("fixture: %d inference digest lines, want %d", len(live), tc.lines)
			}
			state := n.DurableState()
			r := core.NewNetwork(state[0].Directed)
			for i, m := range state[1:] {
				if err := r.Apply(m); err != nil {
					t.Fatalf("Apply record %d (%s): %v", i+1, m.Kind, err)
				}
			}
			if got := r.InferenceDigest(); !digestEqual(live, got) {
				t.Errorf("rebuilt %d inference digest lines, live %d:\n live    %v\n rebuilt %v", len(got), len(live), live, got)
			}
		})
	}
}

// failingJournal rejects every append.
type failingJournal struct{}

func (failingJournal) Append(core.Mutation) error { return errors.New("disk on fire") }

// TestAddMappingJournalFailureAppliesNothing: AddMapping journals before it
// inserts, so a failed append leaves topology, mappings and the next export
// exactly as they were.
func TestAddMappingJournalFailureAppliesNothing(t *testing.T) {
	n, _ := introDiscovered(t)
	before := n.DurableState()
	edges := n.Topology().NumEdges()
	n.AttachWAL(failingJournal{})
	p3, _ := n.Peer("p3")
	if _, err := n.AddMapping("m13", "p1", "p3", core.IdentityPairs(p3.Schema())); err == nil {
		t.Fatal("AddMapping succeeded although the journal refused the record")
	}
	if got := n.Topology().NumEdges(); got != edges {
		t.Errorf("topology has %d edges after the failed add, want %d", got, edges)
	}
	if _, ok := n.Mapping("m13"); ok {
		t.Error("mapping m13 is installed although it was never journaled")
	}
	if !reflect.DeepEqual(n.DurableState(), before) {
		t.Errorf("export changed across a failed add:\n before %+v\n after  %+v", before, n.DurableState())
	}
	// What the topology rejects never reaches the journal: same errors as
	// graph.AddEdge, reported before the (failing) append is tried.
	for _, bad := range []struct {
		id       graph.EdgeID
		from, to graph.PeerID
		want     string
	}{
		{"m12", "p1", "p3", `graph: duplicate edge id "m12"`},
		{"m11", "p1", "p1", `graph: edge "m11" is a self-loop on "p1"`},
	} {
		_, err := n.AddMapping(bad.id, bad.from, bad.to, core.IdentityPairs(p3.Schema()))
		if err == nil || err.Error() != bad.want {
			t.Errorf("AddMapping(%s) = %v, want %q", bad.id, err, bad.want)
		}
	}
}
