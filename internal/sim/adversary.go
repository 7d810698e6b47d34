package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/schema"
)

// This file is the attacker side of the harness: it turns the declarative
// AdversarySpec cliques of a scenario into concrete misbehaviour — fabricated
// feedback observations (poison, sybil), manipulated belief-propagation
// messages (selfpromote) — and implements the partition/heal epoch events
// that sever the detection plane's links. Everything here is deterministic
// from the scenario alone: adversaries need no randomness to lie.

// hasSelfPromote reports whether any declared clique manipulates its outgoing
// belief-propagation messages (the one strategy that perturbs detection
// below the feedback plane, so the scratch differential must skip its
// posterior comparison).
func (s *Simulation) hasSelfPromote() bool {
	for _, ad := range s.sc.Adversaries {
		if ad.Strategy == AdvSelfPromote {
			return true
		}
	}
	return false
}

// applyAdversaries flags every live self-promoting clique member on the
// network. Unknown peers are tolerated — a member may not have joined yet —
// and the call is idempotent, so joins and crash-free rebuilds re-apply it.
func (s *Simulation) applyAdversaries() {
	for _, ad := range s.sc.Adversaries {
		if ad.Strategy != AdvSelfPromote {
			continue
		}
		for _, p := range ad.Peers {
			s.net.SetSelfPromote(graph.PeerID(p), true)
		}
	}
}

// adversaryPeers returns the declared adversarial reporters (poison and sybil
// clique members; self-promoters never report feedback).
func (s *Simulation) adversaryPeers() map[graph.PeerID]bool {
	out := make(map[graph.PeerID]bool)
	for _, ad := range s.sc.Adversaries {
		if ad.Strategy == AdvSelfPromote {
			continue
		}
		for _, p := range ad.Peers {
			out[graph.PeerID(p)] = true
		}
	}
	return out
}

// adversaryObs fabricates one feedback epoch's lying observations. Poison
// cliques contradict the target chain's ground truth — clean targets are
// denounced, corrupted ones whitewashed — while sybil cliques confirm their
// targets unconditionally. Each live member reports Volume copies per live
// target; departed members and churned-away targets fall silent. The slice
// closes every feedback epoch's batch, after the honest observations.
func (s *Simulation) adversaryObs() []core.QueryFeedback {
	var obs []core.QueryFeedback
	attr := schema.Attribute(s.sc.AnalysisAttr)
	for _, ad := range s.sc.Adversaries {
		if ad.Strategy == AdvSelfPromote {
			continue
		}
		for _, t := range ad.Targets {
			m := graph.EdgeID(t)
			if _, ok := s.net.Mapping(m); !ok {
				continue
			}
			pol := feedback.Positive
			if ad.Strategy == AdvPoison && !s.corrupted[m] {
				pol = feedback.Negative
			}
			for _, p := range ad.Peers {
				r := graph.PeerID(p)
				if _, ok := s.net.Peer(r); !ok {
					continue
				}
				for k := 0; k < ad.Volume; k++ {
					obs = append(obs, core.QueryFeedback{
						Attr:     attr,
						Chain:    []graph.EdgeID{m},
						Polarity: pol,
						Reporter: r,
					})
				}
			}
		}
	}
	return obs
}

// partitionNetwork splits the live peers into two halves by sorted name:
// the lower half is side 0, the upper side 1. Peers joining while the
// partition holds land on side 0 (absent map entries default there).
func (s *Simulation) partitionNetwork() {
	live := s.livePeers()
	s.partSide = make(map[graph.PeerID]int, len(live))
	for i, p := range live {
		side := 0
		if i >= len(live)/2 {
			side = 1
		}
		s.partSide[graph.PeerID(p)] = side
	}
	s.partitioned = true
}

// healNetwork reconnects a partitioned network.
func (s *Simulation) healNetwork() {
	s.partitioned = false
	s.partSide = nil
}

// blockedFn returns the detection-plane link filter for the current partition
// state — nil when the network is whole, so the reliable fast path stays
// untouched.
func (s *Simulation) blockedFn() func(from, to graph.PeerID) bool {
	if !s.partitioned {
		return nil
	}
	return func(from, to graph.PeerID) bool {
		return s.partSide[from] != s.partSide[to]
	}
}

// checkAdversaryInvariants holds the trust plane to its contract after an
// epoch's feedback cycle: with trust weighting enabled and a noiseless
// oracle, only declared adversarial reporters may ever be discounted. A
// noisy oracle legitimately puts honest reporters on minority sides, so the
// check is skipped there (the TrustMinVolume guard covers that regime
// statistically, not absolutely).
func (s *Simulation) checkAdversaryInvariants(noise float64) []string {
	if s.sc.NoTrust || noise > 0 {
		return nil
	}
	adv := s.adversaryPeers()
	var viol []string
	for _, r := range s.net.DiscountedReporters() {
		if !adv[r] {
			viol = append(viol, fmt.Sprintf(
				"honest reporter %s discounted to %.4f", r, s.net.ReporterTrust(r)))
		}
	}
	return viol
}
