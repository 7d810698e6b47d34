package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
)

// This file is the property side of the harness: invariants every epoch of
// every scenario must satisfy, plus the scratch differential that pins the
// incrementally maintained inference state to a from-scratch rebuild of the
// same topology. Violations are reported as strings in the epoch trace so a
// failing scenario is self-describing.

// checkInvariants verifies, after one epoch's detection run:
//
//  1. Every posterior is a probability (in [0,1]).
//  2. Every ⊥-pinned variable reports posterior zero.
//  3. Corrupted mappings rank below their clean counterparts: the mean
//     posterior of unambiguously incriminated corrupted mappings — sole
//     corrupted member of at least one negative observation, member of no
//     positive one — is below the mean of clean mappings backed only by
//     positive evidence. Compensated corruptions (two errors cancelling
//     along a structure, the Δ case of §4.5) are excluded: the evidence
//     genuinely exonerates them, which is the paper's known limitation, not
//     a bug in the inference.
func (s *Simulation) checkInvariants(det core.DetectResult) []string {
	var viol []string
	attr := schema.Attribute(s.sc.AnalysisAttr)

	// 1. Range, over every (mapping, attribute) pair, sorted for stable
	// violation ordering.
	type entry struct {
		m graph.EdgeID
		a schema.Attribute
		p float64
	}
	var all []entry
	for m, attrs := range det.Posteriors {
		for a, p := range attrs {
			all = append(all, entry{m, a, p})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].m != all[j].m {
			return all[i].m < all[j].m
		}
		return all[i].a < all[j].a
	})
	for _, e := range all {
		if e.p < 0 || e.p > 1 || math.IsNaN(e.p) {
			viol = append(viol, fmt.Sprintf("posterior out of range: %s/%s = %v", e.m, e.a, e.p))
		}
	}

	// 2. Pins report zero.
	for _, e := range all {
		if owner, ok := s.net.Owner(e.m); ok && owner.Pinned(e.m, e.a) && e.p != 0 {
			viol = append(viol, fmt.Sprintf("pinned variable %s/%s reports %v, want 0", e.m, e.a, e.p))
		}
	}

	// 3. Ranking: unambiguously incriminated corrupted vs positively
	// supported clean.
	var sumBad, sumGood float64
	var nBad, nGood int
	for _, id := range s.liveMappings() {
		m := graph.EdgeID(id)
		p := det.Posterior(m, attr, -1)
		if p < 0 {
			continue
		}
		pos, neg := s.net.EvidenceCounts(m, attr)
		if s.corrupted[m] {
			if pos > 0 || neg == 0 {
				continue // compensated or uncovered: evidence cannot convict
			}
			soleSuspect := false
			for _, f := range s.net.FactorsOf(m, attr) {
				if f.Polarity != feedback.Negative {
					continue
				}
				bad := 0
				for _, member := range f.Mappings {
					if s.corrupted[member] {
						bad++
					}
				}
				if bad == 1 {
					soleSuspect = true
					break
				}
			}
			if soleSuspect {
				sumBad += p
				nBad++
			}
		} else if neg == 0 && pos > 0 {
			sumGood += p
			nGood++
		}
	}
	if nBad > 0 && nGood > 0 {
		meanBad, meanGood := sumBad/float64(nBad), sumGood/float64(nGood)
		if meanBad >= meanGood {
			viol = append(viol, fmt.Sprintf(
				"ranking inverted: corrupted mean %.6f (n=%d) >= clean mean %.6f (n=%d)",
				meanBad, nBad, meanGood, nGood))
		}
	}
	return viol
}

// ReferenceRoute is the specification of θ-gated query forwarding (§2) that
// RoutingSnapshot.RouteQuery — the product's only router — is held to: the
// same breadth-first walk (each peer visited once, first arrival wins,
// outgoing mappings examined in edge-ID order, a hop forwarded only if the
// mapping carries every query attribute and each one's posterior, 0 when
// ⊥-pinned, is strictly above θ_a), decided hop by hop on the live network
// through core's exported API instead of following verdicts frozen at
// publication. opts is the policy already defaulted, as snap.Options()
// reports it, and det the detection result the snapshot was published from;
// the network must not have churned since. It is the one reference walk: the
// scenario replay checks every routed query against it (verifyRoute), and
// the frozen ≡ reference differentials of core, serve and the root package
// call it too. Sig is left zero — the reference predicts routes, not cache
// signatures.
//
//pdms:deterministic
func ReferenceRoute(n *core.Network, det core.DetectResult, opts core.SnapshotOptions, origin graph.PeerID, q query.Query) (core.RouteResult, error) {
	if _, ok := n.Peer(origin); !ok {
		return core.RouteResult{}, fmt.Errorf("sim: reference route: unknown origin peer %q", origin)
	}
	var res core.RouteResult
	visited := map[graph.PeerID]bool{origin: true}
	queue := []core.Visit{{Peer: origin, Query: q}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		res.Visits = append(res.Visits, cur)
		if len(cur.Via) >= opts.MaxHops {
			continue
		}
		p, _ := n.Peer(cur.Peer)
		for _, eid := range p.Outgoing() {
			e, _ := n.Topology().Edge(eid)
			if visited[e.To] {
				continue
			}
			m, _ := n.Mapping(eid)
			forward := true
			for _, a := range cur.Query.Attributes() {
				if _, mapped := m.Map(a); !mapped {
					res.DroppedAttr++
					forward = false
					break
				}
				post := det.Posterior(eid, a, opts.DefaultPosterior)
				if p.Pinned(eid, a) {
					post = 0
				}
				theta, ok := opts.Theta[a]
				if !ok {
					theta = opts.DefaultTheta
				}
				if post <= theta {
					res.Blocked++
					forward = false
					break
				}
			}
			if !forward {
				continue
			}
			rewritten, dropped := cur.Query.Rewrite(m)
			if len(dropped) > 0 {
				res.DroppedAttr++
				continue
			}
			visited[e.To] = true
			queue = append(queue, core.Visit{
				Peer:  e.To,
				Query: rewritten,
				Via:   append(append([]graph.EdgeID(nil), cur.Via...), eid),
			})
		}
	}
	return res, nil
}

// verifyRoute holds one frozen route to the reference: the snapshot's walk
// must equal ReferenceRoute over the live network visit for visit — peer,
// rewritten query and Via chain — with equal Blocked and DroppedAttr counts.
// Equality is soundness (no sub-θ or ⊥ hop crossed) and completeness (no
// reachable peer skipped, no gate count off) in one check.
func (s *Simulation) verifyRoute(snap *core.RoutingSnapshot, det core.DetectResult, origin graph.PeerID, q query.Query, got core.RouteResult) []string {
	want, err := ReferenceRoute(s.net, det, snap.Options(), origin, q)
	if err != nil {
		return []string{err.Error()}
	}
	var viol []string
	if got.Blocked != want.Blocked || got.DroppedAttr != want.DroppedAttr {
		viol = append(viol, fmt.Sprintf("route from %s: gate counts (blocked %d, dropped %d) differ from the reference (%d, %d)",
			origin, got.Blocked, got.DroppedAttr, want.Blocked, want.DroppedAttr))
	}
	if len(got.Visits) != len(want.Visits) {
		return append(viol, fmt.Sprintf("route from %s: %d visits %v, the reference has %d %v",
			origin, len(got.Visits), got.Reached(), len(want.Visits), want.Reached()))
	}
	for i, w := range want.Visits {
		g := got.Visits[i]
		if g.Peer != w.Peer || !g.Query.Equal(w.Query) || !slices.Equal(g.Via, w.Via) {
			viol = append(viol, fmt.Sprintf("route from %s: visit %d is %s via %v (%s), the reference has %s via %v (%s)",
				origin, i, g.Peer, g.Via, g.Query, w.Peer, w.Via, w.Query))
		}
	}
	return viol
}

// rebuild constructs a fresh network with the simulation's current peers and
// mapping revisions, as if the final topology had been declared up front.
func (s *Simulation) rebuild() (*core.Network, error) {
	fresh := core.NewNetwork(s.sc.Directed)
	for _, p := range s.livePeers() {
		if _, err := fresh.AddPeer(graph.PeerID(p), s.schemaFor(graph.PeerID(p))); err != nil {
			return nil, err
		}
	}
	for _, id := range s.liveMappings() {
		spec := s.specs[graph.EdgeID(id)]
		pairs := s.idPairs
		if spec.corrupted {
			pairs = s.swapPairs
		}
		if _, err := fresh.AddMapping(graph.EdgeID(id), spec.from, spec.to, pairs); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// checkScratchDifferential is the churn oracle: the incrementally maintained
// evidence state must be structurally identical to a from-scratch rebuild +
// full rediscovery of the current topology — with the accumulated query
// feedback replayed in one batch at the run's verdict noise, pinning the
// incremental ingest/retract path to a single from-scratch ingestion — and,
// when posteriors is set, a detection run over the rebuilt network must land
// on det's posteriors.
func (s *Simulation) checkScratchDifferential(det core.DetectResult, noise float64, posteriors bool) []string {
	fresh, err := s.rebuild()
	if err != nil {
		return []string{fmt.Sprintf("scratch rebuild failed: %v", err)}
	}
	if _, err := fresh.Discover(s.discoverCfg()); err != nil {
		return []string{fmt.Sprintf("scratch discovery failed: %v", err)}
	}
	if len(s.fedback) > 0 {
		if _, err := fresh.IngestFeedback(s.feedbackOpts(noise), s.fedback...); err != nil {
			return []string{fmt.Sprintf("scratch feedback replay failed: %v", err)}
		}
	}
	a, b := s.net.InferenceDigest(), fresh.InferenceDigest()
	if len(a) != len(b) {
		return []string{fmt.Sprintf("inference state diverged from scratch: %d vs %d entries", len(a), len(b))}
	}
	for i := range a {
		if a[i] != b[i] {
			return []string{fmt.Sprintf("inference state diverged from scratch at %q vs %q", a[i], b[i])}
		}
	}
	if !posteriors || s.partitioned || s.hasSelfPromote() {
		// A partition blocks messages the whole rebuilt network would
		// deliver, and self-promoters lie on the wire the scratch network
		// never sees — posterior comparison is only meaningful on whole,
		// wire-honest epochs, and the caller rules out the rest (see
		// checks). The structural digest comparison above holds in every
		// case.
		return nil
	}
	ref, err := fresh.RunDetection(core.DetectOptions{MaxRounds: s.sc.MaxRounds, Tolerance: 1e-9})
	if err != nil {
		return []string{fmt.Sprintf("scratch detection failed: %v", err)}
	}
	var viol []string
	for m, attrs := range det.Posteriors {
		for at, p := range attrs {
			if d := math.Abs(p - ref.Posterior(m, at, -1)); d > 1e-6 {
				viol = append(viol, fmt.Sprintf(
					"incremental posterior %s/%s differs from scratch by %.2e", m, at, d))
			}
		}
	}
	sort.Strings(viol)
	return viol
}
