package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/schema"
)

// evidenceRef is the immutable description of one feedback observation — a
// cycle or a parallel-path comparison — shared by every peer that replicates
// the corresponding factor. Position i concerns Mappings[i], owned by
// Owners[i]. Attr is the analysis attribute: per the fine granularity of
// §4.1, peers run one factor-graph instance per attribute, and all the
// variables of this factor belong to that instance (one variable per
// mapping, as in the factor graphs of Figures 4–6).
type evidenceRef struct {
	ID       string
	Attr     schema.Attribute
	Polarity feedback.Polarity
	Mappings []graph.EdgeID
	Owners   []graph.PeerID
	// Vals[k] = P(observed feedback | k of the mappings incorrect), the
	// counting-factor values of §3.2.1.
	Vals []float64
}

// otherOwners returns the distinct owners of positions other than pos, in
// first-occurrence order, excluding self.
func (ev *evidenceRef) otherOwners(pos int, self graph.PeerID) []graph.PeerID {
	seen := make(map[graph.PeerID]bool, len(ev.Owners))
	var out []graph.PeerID
	for i, o := range ev.Owners {
		if i == pos || o == self || seen[o] {
			continue
		}
		seen[o] = true
		out = append(out, o)
	}
	return out
}

// DiscoveryReport summarizes an evidence-gathering pass.
type DiscoveryReport struct {
	Structures    int // distinct cycles and parallel pairs examined
	Positive      int // positive feedback observations installed
	Negative      int // negative feedback observations installed
	Neutral       int // comparisons lost to ⊥ (no factor installed)
	Pinned        int // (mapping, attribute) variables pinned to zero
	ParallelPairs int // parallel-pair observations installed
	Cycles        int // cycle observations installed
}

// Granularity selects the storage granularity of §4.1.
type Granularity int

const (
	// FineGrained keeps one factor-graph instance per attribute: one
	// correctness variable per (mapping, analysis attribute), one quality
	// value per attribute (§4.1's fine granularity, the default).
	FineGrained Granularity = iota
	// CoarseGrained keeps a single correctness variable per mapping and one
	// factor per structure: each cycle or parallel pair is evaluated once
	// as a multi-attribute comparison (§3.2.1 notes the extension to
	// multi-attribute operations) — negative if any analyzed attribute
	// disagrees after the closure, positive if at least one agrees and
	// none disagree, neutral otherwise. Peers derive one global value per
	// mapping (§4.1's coarse granularity). Neutral comparisons never pin
	// in coarse mode (a single missing attribute must not zero a whole
	// mapping).
	CoarseGrained
)

// coarseAttr is the attribute label shared by all coarse-grained variables.
const coarseAttr = schema.Attribute("·")

// DiscoverConfig parameterizes evidence gathering.
type DiscoverConfig struct {
	// Attrs are the analysis attributes: for each structure whose origin
	// schema declares the attribute, the attribute is followed around the
	// structure.
	Attrs []schema.Attribute
	// MaxLen bounds the cycle and parallel-path length.
	MaxLen int
	// Delta is Δ; 0 derives it per origin schema as 1/(size−1) (§4.5).
	Delta float64
	// Granularity selects per-attribute or per-mapping variables (§4.1).
	Granularity Granularity
	// DisableParallelPaths restricts evidence to cycles — the ablation of
	// the §3.3 contribution.
	DisableParallelPaths bool
}

// DiscoverStructural enumerates cycles and (on directed networks) parallel
// paths up to maxLen mappings, evaluates the transitive closure of every
// analyzed attribute over each structure, and installs the resulting
// evidence factors at every participating peer (§4.1's local factor-graph
// construction). It replaces previously discovered evidence — call it again
// after topology churn; learned priors survive.
func (n *Network) DiscoverStructural(attrs []schema.Attribute, maxLen int, delta float64) (DiscoveryReport, error) {
	return n.Discover(DiscoverConfig{Attrs: attrs, MaxLen: maxLen, Delta: delta})
}

// CoarseKey returns the attribute key under which coarse-grained posteriors
// are reported in DetectResult.Posteriors.
func CoarseKey() schema.Attribute { return coarseAttr }

// check validates the discovery configuration.
func (cfg DiscoverConfig) check() error {
	if cfg.MaxLen < 2 {
		return fmt.Errorf("core: maxLen %d too small for cycle discovery", cfg.MaxLen)
	}
	if !(0 <= cfg.Delta && cfg.Delta <= 1) {
		return fmt.Errorf("core: delta %v out of [0,1]", cfg.Delta)
	}
	if len(cfg.Attrs) == 0 {
		return fmt.Errorf("core: no attributes to analyze")
	}
	return nil
}

// Discover is the configurable form of DiscoverStructural.
func (n *Network) Discover(cfg DiscoverConfig) (DiscoveryReport, error) {
	if err := cfg.check(); err != nil {
		return DiscoveryReport{}, err
	}
	cfgCopy := cfg
	if err := n.journal(Mutation{Kind: MutDiscover, Cfg: &cfgCopy}); err != nil {
		return DiscoveryReport{}, err
	}
	n.discovered = &cfgCopy
	clear(n.pending)
	n.bumpInfer()
	n.resetInference()

	var rep DiscoveryReport
	resolve := n.Resolver()
	cycles := n.topo.Cycles(cfg.MaxLen)
	var pairs []graph.ParallelPair
	if !cfg.DisableParallelPaths {
		pairs = n.topo.ParallelPaths(cfg.MaxLen)
	}
	rep.Structures = len(cycles) + len(pairs)

	if cfg.Granularity == CoarseGrained {
		return rep, n.discoverCoarse(&rep, cfg, cycles, pairs, resolve)
	}
	return rep, n.installFine(&rep, cfg, cycles, pairs, resolve)
}

// installFine evaluates the given structures under the fine granularity of
// §4.1 — one factor-graph instance per analysis attribute — and installs the
// resulting evidence. Shared by Discover (all structures) and
// DiscoverIncremental (only structures through changed mappings).
func (n *Network) installFine(rep *DiscoveryReport, cfg DiscoverConfig, cycles []graph.Cycle, pairs []graph.ParallelPair, resolve feedback.Resolver) error {
	attrs, delta := cfg.Attrs, cfg.Delta
	installed := make(map[string]bool)
	sigs := make([]string, len(cycles))
	for i, c := range cycles {
		sigs[i] = c.Signature()
	}
	for _, a := range attrs {
		for i, c := range cycles {
			// Every peer on the cycle may evaluate it for its own attributes
			// (each rotation is a distinct origin, as with probe flooding),
			// but the evidence ID does not depend on the rotation: the first
			// origin whose schema declares the attribute installs it, and
			// the other rotations would carry the same ID.
			id := feedback.EvidenceID(sigs[i], a)
			if installed[id] {
				continue
			}
			for r, s := range c.Steps {
				op := n.peers[s.From(n.topo)]
				if op == nil || !op.schema.Has(a) {
					continue
				}
				rot := graph.Cycle{Steps: rotateSteps(c.Steps, r)}
				ev, err := feedback.EvaluateSignedCycle(a, rot, sigs[i], resolve)
				if err != nil {
					return err
				}
				installed[id] = true
				dd := delta
				if dd == 0 {
					dd = feedback.Delta(op.schema.Len())
				}
				n.recordEvidence(rep, ev, a, rot.Steps, dd, false)
				break
			}
		}
		for _, pr := range pairs {
			op := n.peers[pr.Source]
			if op == nil || !op.schema.Has(a) {
				continue
			}
			ev, err := feedback.EvaluateParallel(a, pr, resolve)
			if err != nil {
				return err
			}
			if installed[ev.ID] {
				continue
			}
			installed[ev.ID] = true
			dd := delta
			if dd == 0 {
				dd = feedback.Delta(op.schema.Len())
			}
			steps := append(append([]graph.Step(nil), pr.A...), pr.B...)
			n.recordEvidence(rep, ev, a, steps, dd, true)
		}
	}
	return nil
}

// discoverCoarse installs one multi-attribute observation per structure
// (coarse granularity, §4.1): the structure's polarity aggregates the
// per-attribute comparisons — any disagreement makes it negative, otherwise
// any agreement makes it positive.
func (n *Network) discoverCoarse(rep *DiscoveryReport, cfg DiscoverConfig, cycles []graph.Cycle, pairs []graph.ParallelPair, resolve feedback.Resolver) error {
	aggregate := func(steps []graph.Step, evaluate func(schema.Attribute) (feedback.Evidence, error), origin graph.PeerID) error {
		op := n.peers[origin]
		if op == nil {
			return nil
		}
		pol := feedback.Neutral
		for _, a := range cfg.Attrs {
			if !op.schema.Has(a) {
				continue
			}
			ev, err := evaluate(a)
			if err != nil {
				return err
			}
			switch ev.Polarity {
			case feedback.Negative:
				pol = feedback.Negative
			case feedback.Positive:
				if pol == feedback.Neutral {
					pol = feedback.Positive
				}
			}
			if pol == feedback.Negative {
				break
			}
		}
		dd := cfg.Delta
		if dd == 0 {
			dd = feedback.Delta(op.schema.Len())
		}
		agg := feedback.Evidence{
			ID:       coarseID(steps),
			Attr:     coarseAttr,
			Origin:   origin,
			Polarity: pol,
			Mappings: stepEdges(steps),
		}
		isPair := false
		n.recordEvidence(rep, agg, coarseAttr, steps, dd, isPair)
		return nil
	}
	for _, c := range cycles {
		c := c
		origin := c.Steps[0].From(n.topo)
		if err := aggregate(c.Steps, func(a schema.Attribute) (feedback.Evidence, error) {
			return feedback.EvaluateCycle(a, c, resolve)
		}, origin); err != nil {
			return err
		}
	}
	for _, pr := range pairs {
		pr := pr
		steps := append(append([]graph.Step(nil), pr.A...), pr.B...)
		if err := aggregate(steps, func(a schema.Attribute) (feedback.Evidence, error) {
			return feedback.EvaluateParallel(a, pr, resolve)
		}, pr.Source); err != nil {
			return err
		}
	}
	return nil
}

func coarseID(steps []graph.Step) string {
	ids := make([]string, len(steps))
	for i, s := range steps {
		ids[i] = string(s.Edge)
	}
	sort.Strings(ids)
	return "coarse:" + strings.Join(ids, "|")
}

func stepEdges(steps []graph.Step) []graph.EdgeID {
	out := make([]graph.EdgeID, len(steps))
	for i, s := range steps {
		out[i] = s.Edge
	}
	return out
}

// rotateSteps returns steps rotated so position r comes first.
func rotateSteps(steps []graph.Step, r int) []graph.Step {
	out := make([]graph.Step, 0, len(steps))
	out = append(out, steps[r:]...)
	out = append(out, steps[:r]...)
	return out
}

// recordEvidence installs one observation (or its neutral pin) and updates
// the report. steps must cover the evidence's mappings in order. varAttr is
// the label under which variables are keyed: the analysis attribute in fine
// granularity, coarseAttr in coarse granularity (where neutral comparisons
// never pin).
func (n *Network) recordEvidence(rep *DiscoveryReport, ev feedback.Evidence, varAttr schema.Attribute, steps []graph.Step, delta float64, isPair bool) {
	if ev.Polarity == feedback.Neutral {
		rep.Neutral++
		if ev.LostAt != "" && varAttr != coarseAttr {
			lostAttr := n.attrArrivingAt(ev.Attr, steps, ev.LostAt)
			if owner, ok := n.Owner(ev.LostAt); ok && lostAttr != "" {
				key := varKey{Mapping: ev.LostAt, Attr: lostAttr}
				if owner.pinned[key] == 0 {
					rep.Pinned++
				}
				owner.pinned[key]++
				n.pinRecs = append(n.pinRecs, pinRecord{
					key:   key,
					owner: owner.id,
					edges: stepEdges(steps),
				})
			}
		}
		return
	}
	vals, ok := ev.CountingVals(delta, len(ev.Mappings))
	if !ok {
		return
	}
	ref := &evidenceRef{
		ID:       ev.ID,
		Attr:     varAttr,
		Polarity: ev.Polarity,
		Mappings: ev.Mappings,
		Vals:     vals,
		Owners:   make([]graph.PeerID, len(ev.Mappings)),
	}
	for i, s := range steps {
		e, ok := n.topo.Edge(s.Edge)
		if !ok {
			return
		}
		// The variable lives at the peer that stores the mapping — the
		// declaring peer (§4.1: "only the nodes from which a mapping is
		// departing need to store information about that mapping") — even
		// when an undirected cycle traverses the edge backwards.
		ref.Owners[i] = e.From
	}
	switch ev.Polarity {
	case feedback.Positive:
		rep.Positive++
	case feedback.Negative:
		rep.Negative++
	}
	if isPair {
		rep.ParallelPairs++
	} else {
		rep.Cycles++
	}
	n.installEvidence(ref)
}

// attrArrivingAt follows attr along steps and returns the attribute as it
// arrives at edge lostAt (the attribute the failing mapping could not map),
// or "" if the trace breaks earlier or lostAt is absent.
func (n *Network) attrArrivingAt(attr schema.Attribute, steps []graph.Step, lostAt graph.EdgeID) schema.Attribute {
	cur := attr
	for _, s := range steps {
		if s.Edge == lostAt {
			return cur
		}
		m, ok := n.Mapping(s.Edge)
		if !ok {
			return ""
		}
		if !s.Forward {
			inv, err := m.Inverse()
			if err != nil {
				return ""
			}
			m = inv
		}
		next, ok := m.Map(cur)
		if !ok {
			return ""
		}
		cur = next
	}
	return ""
}

// installEvidence replicates the factor at every participating peer and
// registers the variables it touches (§4.1's local factor-graph slice).
func (n *Network) installEvidence(ev *evidenceRef) {
	replicas := make(map[graph.PeerID]*evReplica)
	for _, o := range ev.Owners {
		p := n.peers[o]
		if p == nil {
			continue
		}
		if r, dup := p.evs[ev.ID]; dup {
			replicas[o] = r
			continue
		}
		r := newEvReplica(ev)
		p.evs[ev.ID] = r
		replicas[o] = r
	}
	for i := range ev.Mappings {
		p := n.peers[ev.Owners[i]]
		if p == nil {
			continue
		}
		key := varKey{Mapping: ev.Mappings[i], Attr: ev.Attr}
		vs, ok := p.vars[key]
		if !ok {
			vs = newVarState(key)
			p.vars[key] = vs
			p.varKeys = nil
		}
		vs.addFactor(replicas[ev.Owners[i]], i)
	}
}

// EvidenceCounts returns how many positive and negative evidence factors
// the variable (mapping, attr) participates in at the mapping's owner —
// zero/zero when the variable is not part of any evidence.
func (n *Network) EvidenceCounts(m graph.EdgeID, a schema.Attribute) (pos, neg int) {
	p, ok := n.Owner(m)
	if !ok {
		return 0, 0
	}
	vs, ok := p.vars[varKey{Mapping: m, Attr: a}]
	if !ok {
		return 0, 0
	}
	for _, f := range vs.factors {
		switch f.replica.ev.Polarity {
		case feedback.Positive:
			pos++
		case feedback.Negative:
			neg++
		}
	}
	return pos, neg
}

// FactorInfo describes one evidence factor adjacent to a variable: its
// polarity and the mappings it ranges over.
type FactorInfo struct {
	Polarity feedback.Polarity
	Mappings []graph.EdgeID
}

// FactorsOf returns the evidence factors the variable (mapping, attr)
// participates in at the mapping's owner, in the owner's factor order. The
// harness uses it to separate unambiguously incriminated mappings (sole
// suspect of a negative observation) from compensated ones (§4.5's Δ case:
// multiple errors cancelling along a structure look like agreement).
func (n *Network) FactorsOf(m graph.EdgeID, a schema.Attribute) []FactorInfo {
	p, ok := n.Owner(m)
	if !ok {
		return nil
	}
	vs, ok := p.vars[varKey{Mapping: m, Attr: a}]
	if !ok {
		return nil
	}
	out := make([]FactorInfo, 0, len(vs.factors))
	for _, f := range vs.factors {
		out = append(out, FactorInfo{
			Polarity: f.replica.ev.Polarity,
			Mappings: append([]graph.EdgeID(nil), f.replica.ev.Mappings...),
		})
	}
	return out
}

// EvidenceSummary returns, for debugging and the CLI, one line per evidence
// factor installed at the peer, sorted.
func (p *Peer) EvidenceSummary() []string {
	var out []string
	for id, r := range p.evs {
		out = append(out, fmt.Sprintf("%s %s over %d mappings", id, r.ev.Polarity, len(r.ev.Mappings)))
	}
	sort.Strings(out)
	return out
}

// resetInference clears all derived inference state. Priors and their
// evidence samples live on the peers and survive (§4.4: priors persist as
// the network evolves).
func (n *Network) resetInference() {
	for _, p := range n.peers {
		p.vars = make(map[varKey]*varState)
		p.evs = make(map[string]*evReplica)
		p.pinned = make(map[varKey]int)
		p.varKeys = nil
	}
	n.pinRecs = nil
	n.fbFactors = nil
	n.fbDirty = nil
	n.fbTrust = nil
}
