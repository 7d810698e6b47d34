package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
	"repro/internal/wire"
)

// DiscoverByProbes is Discover(DiscoverConfig{Attrs: attrs, MaxLen: ttl,
// Delta: delta}) with the structural enumeration replaced by the mechanism of
// §3.2.1: "cycles of mappings can be easily discovered by the peers, either
// by proactively flooding their neighborhood with probe messages with a
// certain Time-To-Live or by examining the trace of routed queries". Every
// peer floods probes through its mappings; a probe back at its origin closes
// a cycle, and on a directed network two disjoint probes from one origin
// meeting at a peer form a parallel pair (§3.3). The flood finds structures
// only: the installer Discover uses then applies every peer's mappings around
// them, one analysis attribute at a time. The state it builds is therefore
// exactly Discover's, and it is journaled as that MutDiscover record.
func (n *Network) DiscoverByProbes(attrs []schema.Attribute, ttl int, delta float64) (DiscoveryReport, error) {
	cfg := DiscoverConfig{Attrs: attrs, MaxLen: ttl, Delta: delta}
	if err := cfg.check(); err != nil {
		return DiscoveryReport{}, err
	}
	cycles, pairs, err := n.flood(ttl)
	if err != nil {
		return DiscoveryReport{}, err
	}
	if err := n.journal(Mutation{Kind: MutDiscover, Cfg: &cfg}); err != nil {
		return DiscoveryReport{}, err
	}
	n.discovered = &cfg
	clear(n.pending)
	n.bumpInfer()
	n.resetInference()

	rep := DiscoveryReport{Structures: len(cycles) + len(pairs)}
	return rep, n.installFine(&rep, cfg, cycles, pairs, n.Resolver())
}

// probeFlood is the state of one flood: the structures found so far and, on a
// directed network, the paths that reached each peer, by origin.
type probeFlood struct {
	n       *Network
	cycles  []graph.Cycle
	pairs   []graph.ParallelPair
	arrived map[[2]graph.PeerID][][]graph.Step // [at, origin] → paths
}

// flood sends one probe with the given TTL from every peer and returns the
// cycles and (on a directed network) parallel pairs of at most ttl mappings,
// each once and in the form graph.Cycles and graph.ParallelPaths report it.
// Their order is the flood's: installFine does not depend on it, because a
// variable keeps its factors in evidence-ID order (varState.addFactor). A
// probe is the wire frame itself: what a peer forwards is exactly what
// travels on the transport.
func (n *Network) flood(ttl int) ([]graph.Cycle, []graph.ParallelPair, error) {
	f := &probeFlood{n: n, arrived: make(map[[2]graph.PeerID][][]graph.Step)}
	sim, err := network.NewSimulator(1, 0)
	if err != nil {
		return nil, nil, err
	}
	for _, id := range n.order {
		err := sim.Register(id, func(e network.Envelope) {
			if m, err := wire.Decode(e.Payload); err == nil {
				if pb, ok := m.(wire.Probe); ok {
					f.receive(sim, id, pb)
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
	}
	for _, id := range n.order {
		f.forward(sim, id, wire.Probe{Origin: id, TTL: ttl})
	}
	// The flood terminates because probes follow simple paths with a TTL.
	sim.Drain(ttl + 2)
	if sim.Pending() > 0 {
		return nil, nil, fmt.Errorf("core: probe flood did not terminate within TTL %d", ttl)
	}
	return f.cycles, f.pairs, nil
}

// forward extends the probe through every mapping of peer at that keeps its
// path simple: no edge twice, and no peer twice other than a final return to
// the origin.
func (f *probeFlood) forward(sim *network.Simulator, at graph.PeerID, pb wire.Probe) {
	if len(pb.Steps) >= pb.TTL {
		return
	}
	topo := f.n.topo
	for _, eid := range topo.Outgoing(at) {
		e, _ := topo.Edge(eid)
		step := graph.Step{Edge: eid, Forward: e.From == at}
		next := step.To(topo)
		if slices.ContainsFunc(pb.Steps, func(s graph.Step) bool {
			return s.Edge == eid || (next != pb.Origin && s.To(topo) == next)
		}) {
			continue
		}
		out := pb
		out.Steps = append(slices.Clip(pb.Steps), step)
		sim.Send(network.Envelope{From: at, To: next, Payload: wire.Encode(out)})
	}
}

// receive handles probe pb arriving at peer at. Back at its origin it closes
// a cycle and stops; elsewhere, on a directed network, the destination
// compares it with the earlier arrivals from the same origin (§3.3: the
// destination peer compares q′ and q′′), and it floods on.
func (f *probeFlood) receive(sim *network.Simulator, at graph.PeerID, pb wire.Probe) {
	topo, steps := f.n.topo, pb.Steps
	if at == pb.Origin {
		// A cycle comes back to each of its peers, on an undirected network
		// once in each direction. Keep the walk graph.Cycles reports: from
		// the least peer, first edge the lesser of the two at that peer.
		if len(steps) >= 2 &&
			!slices.ContainsFunc(steps, func(s graph.Step) bool { return s.To(topo) < at }) &&
			(f.n.directed || steps[0].Edge < steps[len(steps)-1].Edge) {
			f.cycles = append(f.cycles, graph.Cycle{Steps: steps})
		}
		return
	}
	if f.n.directed {
		key := [2]graph.PeerID{at, pb.Origin}
		for _, other := range f.arrived[key] {
			if !stepsDisjoint(topo, other, steps) {
				continue
			}
			// A is the path graph.ParallelPaths meets first: the one whose
			// first edge is the lesser.
			a, b := other, steps
			if b[0].Edge < a[0].Edge {
				a, b = b, a
			}
			f.pairs = append(f.pairs, graph.ParallelPair{Source: pb.Origin, Dest: at, A: a, B: b})
		}
		f.arrived[key] = append(f.arrived[key], steps)
	}
	f.forward(sim, at, pb)
}

// stepsDisjoint reports whether two paths share no edges and no internal
// peers (same predicate as graph.ParallelPaths).
func stepsDisjoint(g *graph.Graph, a, b []graph.Step) bool {
	edges := make(map[graph.EdgeID]bool, len(a))
	internal := make(map[graph.PeerID]bool)
	for i, s := range a {
		edges[s.Edge] = true
		if i < len(a)-1 {
			internal[s.To(g)] = true
		}
	}
	for i, s := range b {
		if edges[s.Edge] {
			return false
		}
		if i < len(b)-1 && internal[s.To(g)] {
			return false
		}
	}
	return true
}
