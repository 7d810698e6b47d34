package core

import (
	"fmt"
	"sort"

	"repro/internal/factorgraph"
	"repro/internal/graph"
)

// This file implements network churn (§4.4 / §7): peers joining and leaving,
// mappings appearing, disappearing and being revised, and the incremental
// maintenance of the distributed inference state those events require. The
// invariant maintained throughout is that the evidence factors, variables and
// ⊥ pins present after any sequence of churn operations plus
// DiscoverIncremental calls are exactly those a full Discover on the final
// topology would install (see TESTING.md for the differential oracle that
// pins this down).

// pinRecord remembers the structure that justified one ⊥ pin: the structure's
// mapping edges, the peer owning the pinned variable and the variable's key.
// When any of the edges disappears, the structure no longer exists and the
// pin reference is retracted.
type pinRecord struct {
	key   varKey
	owner graph.PeerID
	edges []graph.EdgeID
}

// dropEvidenceFor retracts, at every peer, all inference state derived from
// structures that traverse any of the removed mappings: evidence factor
// replicas, the factor references of adjacent variables, variables left with
// no factors, and ⊥ pins whose justifying structure dissolved. Evidence from
// structures that survive the removal is untouched.
func (n *Network) dropEvidenceFor(removed map[graph.EdgeID]bool) {
	if len(removed) == 0 {
		return
	}
	touches := func(ids []graph.EdgeID) bool {
		for _, id := range ids {
			if removed[id] {
				return true
			}
		}
		return false
	}
	for _, p := range n.peers {
		dropped := false
		for id, r := range p.evs {
			if touches(r.ev.Mappings) {
				delete(p.evs, id)
				dropped = true
			}
		}
		for key, vs := range p.vars {
			if removed[key.Mapping] {
				delete(p.vars, key)
				p.varKeys = nil
				continue
			}
			if !dropped {
				continue
			}
			kept := vs.factors[:0]
			for _, f := range vs.factors {
				if !touches(f.replica.ev.Mappings) {
					kept = append(kept, f)
				}
			}
			vs.factors = kept
			if len(vs.factors) == 0 {
				delete(p.vars, key)
				p.varKeys = nil
			}
		}
		if dropped {
			p.varKeys = nil
		}
	}
	n.dropFeedbackFor(removed)
	keptRecs := n.pinRecs[:0]
	for _, rec := range n.pinRecs {
		if !touches(rec.edges) {
			keptRecs = append(keptRecs, rec)
			continue
		}
		if p, ok := n.peers[rec.owner]; ok {
			if p.pinned[rec.key]--; p.pinned[rec.key] <= 0 {
				delete(p.pinned, rec.key)
			}
		}
	}
	n.pinRecs = keptRecs
}

// RemovePeer removes a peer from the network (a database leaving, §4.4
// churn): the peer, every mapping incident to it, and all evidence derived
// from structures through those mappings are discarded network-wide. It
// returns the IDs of the mappings removed with the peer; removing an unknown
// peer is a no-op and returns nil.
func (n *Network) RemovePeer(id graph.PeerID) []graph.EdgeID {
	if _, ok := n.peers[id]; !ok {
		return nil
	}
	n.journal(Mutation{Kind: MutRemovePeer, Peer: id})
	removedEdges := n.topo.RemovePeer(id)
	rm := make(map[graph.EdgeID]bool, len(removedEdges))
	for _, e := range removedEdges {
		rm[e] = true
		delete(n.mappings, e)
		delete(n.pending, e)
	}
	for _, q := range n.peers {
		for e := range q.out {
			if rm[e] {
				delete(q.out, e)
			}
		}
	}
	delete(n.peers, id)
	for i, q := range n.order {
		if q == id {
			n.order = append(n.order[:i:i], n.order[i+1:]...)
			break
		}
	}
	n.dropEvidenceFor(rm)
	// The departed peer also stops being a reporter: its feedback
	// contributions and trust state are retracted eagerly, so a discounted
	// adversary leaving the network takes its poisoned counts with it.
	n.dropReporter(id)
	n.bumpStruct()
	return removedEdges
}

// DiscoverIncremental evaluates only the structures (cycles and parallel
// paths) that traverse at least one of the changed mappings and installs
// their evidence, leaving everything discovered earlier in place — the churn
// counterpart of Discover. Call it after adding mappings (or re-adding a
// revised mapping, whose removal retracted the old evidence): the changed
// IDs must be newly (re)installed since the last discovery, otherwise their
// structures would be double-counted in the report. The combination of
// RemoveMapping/RemovePeer and DiscoverIncremental leaves the network with
// exactly the inference state a full Discover on the final topology builds.
func (n *Network) DiscoverIncremental(cfg DiscoverConfig, changed ...graph.EdgeID) (DiscoveryReport, error) {
	if err := cfg.check(); err != nil {
		return DiscoveryReport{}, err
	}
	for _, id := range changed {
		if _, ok := n.topo.Edge(id); !ok {
			return DiscoveryReport{}, fmt.Errorf("core: incremental discovery over unknown mapping %q", id)
		}
	}
	var rep DiscoveryReport
	if len(changed) == 0 {
		return rep, nil
	}
	cfgCopy := cfg
	if err := n.journal(Mutation{
		Kind:    MutDiscoverInc,
		Cfg:     &cfgCopy,
		Changed: append([]graph.EdgeID(nil), changed...),
	}); err != nil {
		return DiscoveryReport{}, err
	}
	n.discovered = &cfgCopy
	for _, id := range changed {
		delete(n.pending, id)
	}
	cycles := n.topo.CyclesThrough(cfg.MaxLen, changed...)
	var pairs []graph.ParallelPair
	if !cfg.DisableParallelPaths {
		pairs = n.topo.ParallelPathsThrough(cfg.MaxLen, changed...)
	}
	rep.Structures = len(cycles) + len(pairs)
	n.bumpInfer()
	resolve := n.Resolver()
	var err error
	if cfg.Granularity == CoarseGrained {
		err = n.discoverCoarse(&rep, cfg, cycles, pairs, resolve)
	} else {
		err = n.installFine(&rep, cfg, cycles, pairs, resolve)
	}
	if err != nil {
		return rep, err
	}
	// Freshly installed structures vote in the trust majorities; re-weight
	// the feedback factors so incremental maintenance matches a replay that
	// only ever saw the final structure.
	n.resyncTrust()
	return rep, nil
}

// ResetMessages restores every remote message and factor→variable message to
// the virtual unit message of §4.3, without touching the discovered evidence
// or the learned priors. After churn plus incremental discovery this makes
// the next detection run start from the same state a freshly discovered
// network would — the incremental re-detection entry point scenario replay
// uses between epochs.
func (n *Network) ResetMessages() {
	n.bumpInfer()
	for _, p := range n.peers {
		for _, r := range p.evs {
			for i := range r.remote {
				r.remote[i] = factorgraph.Unit()
			}
			r.dirty = true
		}
		for _, vs := range p.vars {
			for _, f := range vs.factors {
				f.toVar = factorgraph.Unit()
			}
		}
	}
}

// InferenceDigest returns a deterministic fingerprint of the distributed
// inference structure: one line per evidence replica, per variable (with its
// factor degree) and per ⊥ pin, sorted. Two networks with equal digests hold
// the same factor-graph fragments — the structural equality the incremental
// churn path is pinned to scratch rediscovery with.
//
//pdms:deterministic
func (n *Network) InferenceDigest() []string {
	var out []string
	for _, p := range n.Peers() {
		for id := range p.evs {
			out = append(out, fmt.Sprintf("%s ev %s", p.id, id))
		}
		for _, key := range p.sortedVarKeys() {
			out = append(out, fmt.Sprintf("%s var %s/%s deg=%d", p.id, key.Mapping, key.Attr, len(p.vars[key].factors)))
		}
		for key := range p.pinned {
			out = append(out, fmt.Sprintf("%s pin %s/%s", p.id, key.Mapping, key.Attr))
		}
	}
	sort.Strings(out)
	return out
}
