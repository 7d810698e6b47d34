package core

import (
	"fmt"

	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
	"repro/internal/wire"
)

// probeMsg is a probe flooded through the mapping network to detect cycles
// and parallel paths (§3.2.1: "cycles of mappings can be easily discovered
// by the peers, either by proactively flooding their neighborhood with probe
// messages with a certain Time-To-Live or by examining the trace of routed
// queries"). The probe carries the image of the origin attribute under the
// mappings traversed so far, so the destination can compare transitive
// closures without any further communication. It is the wire frame itself:
// what a peer forwards is exactly what travels on the transport.
type probeMsg = wire.Probe

// probeRun accumulates discovery state across the flood.
type probeRun struct {
	n         *Network
	delta     float64
	rep       DiscoveryReport
	installed map[string]bool
	// arrived[dest][origin+attr] collects probes for parallel-path
	// detection at the destination (§3.3).
	arrived map[graph.PeerID]map[string][]probeMsg
}

// DiscoverByProbes floods probes with the given TTL from every peer for
// every analysis attribute, detecting cycles and (on directed networks)
// parallel paths, and installs the resulting evidence exactly as
// DiscoverStructural does. The two discovery methods find the same
// structures up to the TTL/maxLen horizon, but only to within floating-
// point tolerance (the two flood orders sum the same evidence in different
// orders), so probe discovery has no journal form: replaying it as a
// MutDiscover would diverge from the journaled checkpoint digests.
// Networks with a WAL attached must use Discover/DiscoverIncremental;
// calling this on one is rejected before any state changes.
//
// The unjournaled resetInference below can never desync a log: the guard
// rejects WAL-backed networks before any state changes.
// pdms:nojournal-ok — probe discovery is rejected on WAL-backed networks.
func (n *Network) DiscoverByProbes(attrs []schema.Attribute, ttl int, delta float64) (DiscoveryReport, error) {
	if ttl < 2 {
		return DiscoveryReport{}, fmt.Errorf("core: ttl %d too small for cycle discovery", ttl)
	}
	if !(0 <= delta && delta <= 1) {
		return DiscoveryReport{}, fmt.Errorf("core: delta %v out of [0,1]", delta)
	}
	if len(attrs) == 0 {
		return DiscoveryReport{}, fmt.Errorf("core: no attributes to analyze")
	}
	if n.wal != nil {
		return DiscoveryReport{}, fmt.Errorf("core: probe discovery has no journal form; detach the WAL or use Discover")
	}
	// Recorded as Discover records its pass: the flood finds exactly the
	// structures of a structural pass at MaxLen ttl, so DurableState
	// exports this evidence, not the previous pass's.
	n.discovered = &DiscoverConfig{Attrs: attrs, MaxLen: ttl, Delta: delta}
	clear(n.pending)
	n.bumpInfer()
	n.resetInference()

	run := &probeRun{
		n:         n,
		delta:     delta,
		installed: make(map[string]bool),
		arrived:   make(map[graph.PeerID]map[string][]probeMsg),
	}
	sim, err := network.NewSimulator(1, 0)
	if err != nil {
		return DiscoveryReport{}, err
	}
	for _, p := range n.Peers() {
		p := p
		err := sim.Register(p.id, func(e network.Envelope) {
			m, err := wire.Decode(e.Payload)
			if err != nil {
				return
			}
			if pb, ok := m.(wire.Probe); ok {
				run.receive(sim, p, pb)
			}
		})
		if err != nil {
			return DiscoveryReport{}, err
		}
	}
	// Seed: every peer probes through its outgoing mappings for every
	// analysis attribute its schema declares.
	for _, p := range n.Peers() {
		for _, a := range attrs {
			if !p.schema.Has(a) {
				continue
			}
			seed := probeMsg{Origin: p.id, Attr: a, Image: a, TTL: ttl}
			run.forward(sim, p, seed)
		}
	}
	// The flood terminates because probes follow simple paths with a TTL.
	sim.Drain(ttl + 2)
	if sim.Pending() > 0 {
		return DiscoveryReport{}, fmt.Errorf("core: probe flood did not terminate within TTL %d", ttl)
	}

	// Count distinct structures examined (cycles + pairs observed),
	// mirroring DiscoverStructural's report semantics.
	run.rep.Structures = run.rep.Cycles + run.rep.ParallelPairs + run.rep.Neutral
	return run.rep, nil
}

// forward extends the probe through every usable mapping of p, respecting
// simple-path semantics (no repeated edges, no repeated peers other than a
// final return to the origin).
func (r *probeRun) forward(sim *network.Simulator, p *Peer, pm probeMsg) {
	if len(pm.Steps) >= pm.TTL {
		return
	}
	used := make(map[graph.EdgeID]bool, len(pm.Steps))
	onPath := map[graph.PeerID]bool{pm.Origin: true}
	for _, s := range pm.Steps {
		used[s.Edge] = true
		onPath[s.To(r.n.topo)] = true
	}
	for _, eid := range r.n.topo.Outgoing(p.id) {
		if used[eid] {
			continue
		}
		e, ok := r.n.topo.Edge(eid)
		if !ok {
			continue
		}
		step := graph.Step{Edge: eid, Forward: e.From == p.id}
		next := step.To(r.n.topo)
		if onPath[next] && next != pm.Origin {
			continue
		}
		m, ok := r.n.Mapping(eid)
		if !ok {
			continue
		}
		out := pm
		out.Steps = append(append([]graph.Step(nil), pm.Steps...), step)
		if out.Lost == "" {
			use := m
			invertible := true
			if !step.Forward {
				inv, err := m.Inverse()
				if err != nil {
					invertible = false
				} else {
					use = inv
				}
			}
			if !invertible {
				out.Lost = eid
			} else if img, ok := use.Map(out.Image); ok {
				out.Image = img
			} else {
				out.Lost = eid
			}
		}
		sim.Send(network.Envelope{From: p.id, To: next, Payload: wire.Encode(out)})
	}
}

// receive handles a probe arriving at peer p: closes cycles, detects
// parallel paths, and keeps flooding.
func (r *probeRun) receive(sim *network.Simulator, p *Peer, pm probeMsg) {
	if p.id == pm.Origin {
		if len(pm.Steps) >= 2 {
			r.closeCycle(pm)
		}
		return // probes stop at their origin
	}
	if r.n.directed {
		r.detectParallel(p, pm)
	}
	r.forward(sim, p, pm)
}

// closeCycle converts a returned probe into cycle evidence (§3.2.1).
func (r *probeRun) closeCycle(pm probeMsg) {
	c := graph.Cycle{Steps: pm.Steps}
	id := c.Signature() + "@" + string(pm.Attr)
	if r.installed[id] {
		return
	}
	r.installed[id] = true
	ev := feedback.Evidence{
		ID:       id,
		Attr:     pm.Attr,
		Origin:   pm.Origin,
		Mappings: c.Edges(),
	}
	switch {
	case pm.Lost != "":
		ev.Polarity = feedback.Neutral
		ev.LostAt = pm.Lost
	case pm.Image == pm.Attr:
		ev.Polarity = feedback.Positive
	default:
		ev.Polarity = feedback.Negative
	}
	r.n.recordEvidence(&r.rep, ev, pm.Attr, pm.Steps, r.deltaFor(pm.Origin), false)
}

// detectParallel compares the arriving probe with previously arrived probes
// from the same origin and attribute (§3.3: the destination peer compares
// q′ and q′′).
func (r *probeRun) detectParallel(p *Peer, pm probeMsg) {
	key := string(pm.Origin) + "@" + string(pm.Attr)
	if r.arrived[p.id] == nil {
		r.arrived[p.id] = make(map[string][]probeMsg)
	}
	for _, other := range r.arrived[p.id][key] {
		if !stepsDisjoint(r.n.topo, pm.Steps, other.Steps) {
			continue
		}
		pair := graph.ParallelPair{Source: pm.Origin, Dest: p.id, A: other.Steps, B: pm.Steps}
		id := pair.Signature() + "@" + string(pm.Attr)
		if r.installed[id] {
			continue
		}
		r.installed[id] = true
		ev := feedback.Evidence{
			ID:       id,
			Attr:     pm.Attr,
			Origin:   pm.Origin,
			Mappings: pair.Edges(),
		}
		switch {
		case other.Lost != "":
			ev.Polarity = feedback.Neutral
			ev.LostAt = other.Lost
		case pm.Lost != "":
			ev.Polarity = feedback.Neutral
			ev.LostAt = pm.Lost
		case other.Image == pm.Image:
			ev.Polarity = feedback.Positive
		default:
			ev.Polarity = feedback.Negative
		}
		steps := append(append([]graph.Step(nil), pair.A...), pair.B...)
		r.n.recordEvidence(&r.rep, ev, pm.Attr, steps, r.deltaFor(pm.Origin), true)
	}
	r.arrived[p.id][key] = append(r.arrived[p.id][key], pm)
}

func (r *probeRun) deltaFor(origin graph.PeerID) float64 {
	if r.delta > 0 {
		return r.delta
	}
	if p, ok := r.n.peers[origin]; ok {
		return feedback.Delta(p.schema.Len())
	}
	return 0.1
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
