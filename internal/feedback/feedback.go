// Package feedback turns structural redundancy in the mapping network into
// probabilistic evidence, implementing §3.2.1 and §3.3 of the paper.
//
// Given a mapping cycle, an attribute is followed through the transitive
// closure of the mapping operations around the cycle and compared with the
// original attribute:
//
//   - same attribute   → positive feedback (f+): semantic agreement,
//   - other attribute  → negative feedback (f−): at least one mapping is
//     wrong for this attribute,
//   - no correspondence (⊥) → neutral feedback: no information about the
//     cycle, but the mapping lacking the correspondence is pinned to
//     probability zero for the attribute (§3.2.1).
//
// Parallel mapping paths are compared analogously by following the attribute
// down both paths and comparing the two images at the shared destination.
//
// Each piece of evidence becomes a counting factor over the constituent
// mappings with the conditional of §3.2.1: P(f+ | mappings) is 1 when all
// are correct, 0 when exactly one is incorrect, and Δ — the probability that
// two or more errors compensate — when two or more are incorrect.
package feedback

import (
	"fmt"

	"repro/internal/factorgraph"
	"repro/internal/graph"
	"repro/internal/schema"
)

// Polarity classifies a transitive-closure comparison.
type Polarity int

const (
	// Neutral means the attribute was lost (⊥) before the comparison.
	Neutral Polarity = iota
	// Positive means the closure preserved the attribute (f+).
	Positive
	// Negative means the closure moved the attribute (f−).
	Negative
)

// String implements fmt.Stringer.
func (p Polarity) String() string {
	switch p {
	case Positive:
		return "f+"
	case Negative:
		return "f-"
	case Neutral:
		return "f⊥"
	default:
		return fmt.Sprintf("Polarity(%d)", int(p))
	}
}

// Evidence is one observed feedback: the outcome of comparing an attribute
// against its image through a cycle or a pair of parallel paths.
type Evidence struct {
	// ID canonically identifies the structure the evidence came from
	// (cycle or parallel-pair signature plus the attribute).
	ID string
	// Attr is the origin attribute the comparison was performed for,
	// expressed in the origin peer's schema.
	Attr schema.Attribute
	// Origin is the peer at which the comparison takes place.
	Origin graph.PeerID
	// Mappings are the constituent mapping edges (the cycle's mappings, or
	// the union of both parallel paths' mappings).
	Mappings []graph.EdgeID
	// Polarity is the comparison outcome.
	Polarity Polarity
	// LostAt identifies the mapping at which the attribute was lost when
	// Polarity is Neutral; empty otherwise.
	LostAt graph.EdgeID
}

// Resolver maps a topology edge to its schema mapping. Implementations are
// provided by whatever owns the mapping contents (the PDMS network).
type Resolver func(graph.EdgeID) (*schema.Mapping, bool)

// followSteps follows attr through a sequence of steps, resolving each edge
// to its mapping and inverting it for backward traversal of undirected
// edges. It returns the final attribute, or the edge at which the attribute
// was lost (⊥).
func followSteps(attr schema.Attribute, steps []graph.Step, resolve Resolver) (schema.Attribute, graph.EdgeID, error) {
	cur := attr
	for _, s := range steps {
		m, ok := resolve(s.Edge)
		if !ok {
			return "", "", fmt.Errorf("feedback: no mapping for edge %q", s.Edge)
		}
		if !s.Forward {
			inv, err := m.Inverse()
			if err != nil {
				// Not invertible: traversing backwards provides no
				// correspondence, which is the ⊥ case.
				return "", s.Edge, nil
			}
			m = inv
		}
		next, ok := m.Map(cur)
		if !ok {
			return "", s.Edge, nil
		}
		cur = next
	}
	return cur, "", nil
}

// EvaluateCycle compares attr (an attribute of the cycle's starting peer)
// with its image after the full cycle (§3.2.1).
func EvaluateCycle(attr schema.Attribute, c graph.Cycle, resolve Resolver) (Evidence, error) {
	return EvaluateSignedCycle(attr, c, c.Signature(), resolve)
}

// EvidenceID is the ID of the evidence a structure with the given signature
// yields for attr.
func EvidenceID(signature string, attr schema.Attribute) string {
	return signature + "@" + string(attr)
}

// EvaluateSignedCycle is EvaluateCycle for a caller that already holds
// c.Signature(). The signature does not depend on where the cycle starts, so
// a caller that tries several rotations or attributes computes it once.
func EvaluateSignedCycle(attr schema.Attribute, c graph.Cycle, signature string, resolve Resolver) (Evidence, error) {
	if len(c.Steps) == 0 {
		return Evidence{}, fmt.Errorf("feedback: empty cycle")
	}
	ev := Evidence{
		ID:       EvidenceID(signature, attr),
		Attr:     attr,
		Mappings: c.Edges(),
	}
	// Origin: the peer the first step leaves. Needs graph context; the
	// caller can overwrite. We keep it empty here and let wrappers set it.
	img, lostAt, err := followSteps(attr, c.Steps, resolve)
	if err != nil {
		return Evidence{}, err
	}
	switch {
	case lostAt != "":
		ev.Polarity = Neutral
		ev.LostAt = lostAt
	case img == attr:
		ev.Polarity = Positive
	default:
		ev.Polarity = Negative
	}
	return ev, nil
}

// EvaluateParallel compares the images of attr through both paths of a
// parallel pair (§3.3). The evidence's mapping set is the union of both
// paths.
func EvaluateParallel(attr schema.Attribute, p graph.ParallelPair, resolve Resolver) (Evidence, error) {
	if len(p.A) == 0 || len(p.B) == 0 {
		return Evidence{}, fmt.Errorf("feedback: parallel pair with empty path")
	}
	ev := Evidence{
		ID:       EvidenceID(p.Signature(), attr),
		Attr:     attr,
		Origin:   p.Source,
		Mappings: p.Edges(),
	}
	imgA, lostA, err := followSteps(attr, p.A, resolve)
	if err != nil {
		return Evidence{}, err
	}
	imgB, lostB, err := followSteps(attr, p.B, resolve)
	if err != nil {
		return Evidence{}, err
	}
	switch {
	case lostA != "":
		ev.Polarity = Neutral
		ev.LostAt = lostA
	case lostB != "":
		ev.Polarity = Neutral
		ev.LostAt = lostB
	case imgA == imgB:
		ev.Polarity = Positive
	default:
		ev.Polarity = Negative
	}
	return ev, nil
}

// Delta estimates Δ, the probability that two or more mapping errors
// compensate along a cycle, from the size of the origin schema: an error
// maps the attribute to one of the size−1 other attributes uniformly, so
// the final error cancels the accumulated one with probability 1/(size−1)
// (§4.5 uses 1/10 for an eleven-attribute schema).
func Delta(schemaSize int) float64 {
	if schemaSize <= 1 {
		return 1
	}
	return 1 / float64(schemaSize-1)
}

// CountingVals returns the counting-factor values for observed evidence over
// n mappings: index k holds P(observation | k mappings incorrect).
// Neutral evidence yields no factor (nil, false).
func (e Evidence) CountingVals(delta float64, n int) ([]float64, bool) {
	switch e.Polarity {
	case Positive:
		vals := make([]float64, n+1)
		vals[0] = 1
		for k := 2; k <= n; k++ {
			vals[k] = delta
		}
		return vals, true
	case Negative:
		vals := make([]float64, n+1)
		if n >= 1 {
			vals[1] = 1
		}
		for k := 2; k <= n; k++ {
			vals[k] = 1 - delta
		}
		return vals, true
	default:
		return nil, false
	}
}

// NoisyCountingVals returns the counting-factor values for query-result
// feedback observed through a noisy channel: the verdict behind the evidence
// is assumed to be flipped with probability eps (a user confirming a wrong
// answer or contradicting a right one), so no conditional is ever exactly
// zero and repeated observations can be folded into one factor by raising
// the values elementwise to the observation count. With eps = 0 this reduces
// to CountingVals. Neutral evidence yields no factor (nil, false).
func (e Evidence) NoisyCountingVals(delta, eps float64, n int) ([]float64, bool) {
	if e.Polarity == Neutral {
		return nil, false
	}
	// P(true verdict = confirm | k incorrect): 1 for k = 0, 0 for k = 1,
	// Δ for k ≥ 2 (§3.2.1), then pushed through the eps-flip channel.
	confirm := func(k int) float64 {
		switch {
		case k == 0:
			return 1 - eps
		case k == 1:
			return eps
		default:
			return (1-eps)*delta + eps*(1-delta)
		}
	}
	vals := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		if e.Polarity == Positive {
			vals[k] = confirm(k)
		} else {
			vals[k] = 1 - confirm(k)
		}
	}
	return vals, true
}

// Analysis is the complete per-attribute evidence set for a PDMS: the
// feedback gathered from every cycle and parallel pair that carries the
// attribute, plus the mappings pinned to zero because they lack a
// correspondence for it.
type Analysis struct {
	Attr      schema.Attribute
	Evidences []Evidence
	// Pinned are mappings whose correctness for Attr is zero by ⊥ (§3.2.1).
	Pinned map[graph.EdgeID]bool
}

// Analyze gathers evidence for attr over all cycles (and, on directed
// graphs, parallel pairs) of at most maxLen mappings. Neutral evidence is
// recorded as pins rather than factors.
func Analyze(attr schema.Attribute, g *graph.Graph, resolve Resolver, maxLen int) (Analysis, error) {
	a := Analysis{Attr: attr, Pinned: make(map[graph.EdgeID]bool)}
	for _, c := range g.Cycles(maxLen) {
		ev, err := EvaluateCycle(attr, c, resolve)
		if err != nil {
			return Analysis{}, err
		}
		ev.Origin = c.Steps[0].From(g)
		if ev.Polarity == Neutral {
			if ev.LostAt != "" {
				a.Pinned[ev.LostAt] = true
			}
			continue
		}
		a.Evidences = append(a.Evidences, ev)
	}
	for _, p := range g.ParallelPaths(maxLen) {
		ev, err := EvaluateParallel(attr, p, resolve)
		if err != nil {
			return Analysis{}, err
		}
		if ev.Polarity == Neutral {
			if ev.LostAt != "" {
				a.Pinned[ev.LostAt] = true
			}
			continue
		}
		a.Evidences = append(a.Evidences, ev)
	}
	return a, nil
}

// BuildFactorGraph assembles the global factor graph of §3.2 for one
// analysis: a prior factor and a variable per mapping that occurs in some
// evidence, plus one counting factor per evidence. Pinned mappings are
// excluded (their posterior is zero by definition, not by inference).
// priors returns the prior P(m = correct) for a mapping; delta is Δ.
func BuildFactorGraph(a Analysis, priors func(graph.EdgeID) float64, delta float64) (*factorgraph.Graph, error) {
	if delta < 0 || delta > 1 {
		return nil, fmt.Errorf("feedback: delta %v out of [0,1]", delta)
	}
	fg := factorgraph.New()
	vars := make(map[graph.EdgeID]*factorgraph.Var)
	ensure := func(id graph.EdgeID) (*factorgraph.Var, error) {
		if v, ok := vars[id]; ok {
			return v, nil
		}
		v, err := fg.AddVar(string(id))
		if err != nil {
			return nil, err
		}
		vars[id] = v
		if err := fg.AddFactor(factorgraph.Prior{V: v, P: priors(id)}); err != nil {
			return nil, err
		}
		return v, nil
	}
	for _, ev := range a.Evidences {
		vals, ok := ev.CountingVals(delta, len(ev.Mappings))
		if !ok {
			continue
		}
		fvars := make([]*factorgraph.Var, 0, len(ev.Mappings))
		skip := false
		for _, id := range ev.Mappings {
			if a.Pinned[id] {
				// A pinned mapping invalidates the evidence structure for
				// this attribute: the closure cannot be followed through
				// it anyway.
				skip = true
				break
			}
			v, err := ensure(id)
			if err != nil {
				return nil, err
			}
			fvars = append(fvars, v)
		}
		if skip {
			continue
		}
		c, err := factorgraph.NewCounting(fvars, vals)
		if err != nil {
			return nil, err
		}
		if err := fg.AddFactor(c); err != nil {
			return nil, err
		}
	}
	return fg, nil
}
