package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/schema"
)

// DurableState returns the network's canonical export: the shortest mutation
// sequence that rebuilds everything the journal covers — peers, mappings,
// discovered evidence, priors, feedback tallies — on NewNetwork + Apply. The
// order is fixed, because the network's semantics make it observable:
//
//   - MutInit, then one MutAddPeer per live peer in insertion order
//     (Peers() iterates it);
//   - one MutAddMapping per mapping a discovery pass has covered, in
//     topology insertion order; one MutDiscover with the last pass's
//     configuration; then the mappings still awaiting a pass. A full
//     Discover on the covered mappings installs what the live history of
//     passes and removals left (the churn invariant, see churn.go) — as
//     long as no incremental pass crossed a mapping it did not name;
//   - one MutPriorSamples holding every peer's whole sample sequence, in
//     peer order, canonical variable order and sample order: replaying a
//     sequence from its first sample leaves SetPrior's and CommitPriors'
//     state bit for bit, since the prior is the running mean in that order;
//   - one MutFeedback with one group per (factor, reporter) tally, factors
//     by canonical key and reporters sorted, under the last journaled
//     batch's post-default options. The tallies are what churn already
//     retracted from (dropReporter, dropFeedbackFor), so a departed
//     reporter or a removed chain cannot come back from an export.
//
// The export is a canonical form: rebuilding from it and exporting again
// yields the same sequence.
//
//pdms:deterministic
func (n *Network) DurableState() []Mutation {
	out := []Mutation{{Kind: MutInit, Directed: n.directed}}
	for _, id := range n.order {
		s := n.peers[id].schema
		out = append(out, Mutation{Kind: MutAddPeer, Peer: id, SchemaName: s.Name(), Attrs: s.Attributes()})
	}

	edges := n.topo.Edges()
	for _, e := range edges {
		if !n.pending[e.ID] {
			out = append(out, mappingRecord(e.ID, e.From, e.To, n.mappings[e.ID]))
		}
	}
	if n.discovered != nil {
		cfg := *n.discovered
		out = append(out, Mutation{Kind: MutDiscover, Cfg: &cfg})
	}
	for _, e := range edges {
		if n.pending[e.ID] {
			out = append(out, mappingRecord(e.ID, e.From, e.To, n.mappings[e.ID]))
		}
	}

	var samples []PriorSample
	for _, id := range n.order {
		p := n.peers[id]
		keys := make([]varKey, 0, len(p.samples))
		for k := range p.samples {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
		for _, k := range keys {
			for _, s := range p.samples[k] {
				samples = append(samples, PriorSample{Peer: id, Mapping: k.Mapping, Attr: k.Attr, Sample: s})
			}
		}
	}
	if len(samples) > 0 {
		out = append(out, Mutation{Kind: MutPriorSamples, Samples: samples})
	}

	keys := make([]string, 0, len(n.fbFactors))
	for k := range n.fbFactors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var groups []FeedbackGroup
	for _, k := range keys {
		ff := n.fbFactors[k]
		for _, r := range ff.sortedReporters() {
			tl := ff.tallies[r]
			groups = append(groups, FeedbackGroup{
				Attr:     ff.ref.Attr,
				Chain:    append([]graph.EdgeID(nil), ff.ref.Mappings...),
				Pos:      tl.pos,
				Neg:      tl.neg,
				Reporter: r,
			})
		}
	}
	if len(groups) > 0 {
		opts := n.fbOpts
		out = append(out, Mutation{Kind: MutFeedback, FbOpts: &opts, Groups: groups})
	}
	return out
}

// mappingRecord renders a mapping as the MutAddMapping that journals it,
// pairs sorted by source attribute.
func mappingRecord(id graph.EdgeID, from, to graph.PeerID, m *schema.Mapping) Mutation {
	pairs := make([]AttrPair, 0, m.Len())
	for _, a := range m.Mapped() {
		t, _ := m.Map(a)
		pairs = append(pairs, AttrPair{From: a, To: t})
	}
	return Mutation{Kind: MutAddMapping, Edge: id, From: from, To: to, Pairs: pairs}
}

// Apply applies one journaled mutation through the same entry point that
// produced it — the one place that says what a mutation does to a network.
// Recovery calls it on a network with no journal attached, so replay does
// not re-journal. MutInit is not applicable: NewNetwork fixes directedness.
func (n *Network) Apply(m Mutation) error {
	switch m.Kind {
	case MutInit:
		return fmt.Errorf("init record after the first position")
	case MutAddPeer:
		s, err := schema.New(m.SchemaName, m.Attrs...)
		if err != nil {
			return err
		}
		_, err = n.AddPeer(m.Peer, s)
		return err
	case MutAddMapping:
		pairs := make(map[schema.Attribute]schema.Attribute, len(m.Pairs))
		for _, pr := range m.Pairs {
			pairs[pr.From] = pr.To
		}
		_, err := n.AddMapping(m.Edge, m.From, m.To, pairs)
		return err
	case MutRemovePeer:
		n.RemovePeer(m.Peer)
	case MutRemoveMapping:
		n.RemoveMapping(m.Edge)
	case MutSetPrior:
		p, ok := n.Peer(m.Peer)
		if !ok {
			return nil // peer removed later; its priors die with it anyway
		}
		p.SetPrior(m.Edge, m.Attr, m.Prior)
	case MutDiscover:
		_, err := n.Discover(*m.Cfg)
		return err
	case MutDiscoverInc:
		_, err := n.DiscoverIncremental(*m.Cfg, m.Changed...)
		return err
	case MutFeedback:
		_, err := n.IngestFeedbackGroups(*m.FbOpts, m.Groups...)
		return err
	case MutPriorSamples:
		n.ApplyPriorSamples(m.Samples)
	case MutCheckpoint, MutMark:
		// no state
	default:
		return fmt.Errorf("unknown mutation kind %d", m.Kind)
	}
	return nil
}
