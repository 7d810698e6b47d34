package feedback

// This file holds the pure scoring rules of per-reporter trust weighting —
// the robustness layer internal/core applies to query-feedback counting
// factors when the serving plane faces active liars (coordinated feedback
// poisoning, sybil cliques) rather than the paper's passively corrupted
// mappings. The rules are deliberately stateless functions of integer
// agreement tallies, so the core can recompute trust from its accumulated
// per-factor counts after every batch and stay bit-equivalent between
// incremental maintenance and a from-scratch replay.

// TrustMinVolume is the net contradicted volume a reporter must reach on a
// single chain before its trust may decay at all. Honest reporters
// occasionally land on the minority side of a verdict — the oracle is noisy
// — but a noise flip only registers once the flipped verdicts *outnumber*
// the correct ones on the same chain by this margin (scoring is over net
// per-chain tallies), so scattered unlucky verdicts never perturb honest
// weights (trust must be an exact no-op on honest networks, which the
// 50-seed differential in internal/sim pins bit-for-bit). A liar, by
// contrast, crosses the threshold in one batch by pushing its fabricated
// verdicts at any useful volume.
const TrustMinVolume = 4

// TrustScore maps a reporter's accumulated disagreement tallies to its
// weight. worst is the largest net verdict the reporter holds on any single
// chain against that chain's trust-weighted consensus; dis is the
// reporter's total contradicted volume across all chains.
//
// The score is exactly 1 — full trust, and bit-identical arithmetic to the
// unweighted detector — until one chain's contradicted net verdict reaches
// TrustMinVolume. Past that the score is 1/(2+dis²): it decays
// quadratically with the total contradicted volume and deliberately ignores
// how much the reporter agrees elsewhere. Agreement must not be a currency
// that buys lies — a sybil peer that also serves honest traffic would
// otherwise hold full trust indefinitely — and a convicted clique gains
// nothing by shouting, since weight × volume *vanishes* as volume grows
// (dis/(2+dis²) → 0); a linear decay would leave each clique member a
// residual weight of one full observation, enough for a small clique to
// out-shout the sparse honest traffic on a θ-starved chain and deflect the
// structural blame onto a clean neighbour. The score never reaches 0: a
// discounted reporter cannot be silently censored.
func TrustScore(worst, dis int) float64 {
	if worst < TrustMinVolume {
		return 1
	}
	return 1 / float64(2+dis*dis)
}

// TrustStructVolume is the elevated conviction threshold for contradicting
// a verdict anchored by positive structural evidence alone — no live
// disinterested reporter seconds it. Positive certification is the fallible
// kind of structural evidence (a cycle can close over compensating errors,
// wrongly certifying a corrupted member), so a lone dissenter against it may
// well be the only honest observer of a real corruption and must not be
// convicted at ordinary volume. What bounds honest dissent is the router:
// genuine negative verdicts drag the chain below θ within a handful of
// observations, after which θ-gated routing stops producing them — honest
// contradicted volume on a single chain plateaus well under this threshold.
// A poison clique injects regardless of routability, sails past it, and is
// the only kind of reporter that can. Corroborated verdicts keep the
// ordinary TrustMinVolume threshold. Under serving the router bounds dissent
// per refresh, not per observation, so core never convicts a mapping's owner
// that alone disputes a structure-only verdict (core's loneOwner).
const TrustStructVolume = 3 * TrustMinVolume

// StructuralVoteWeight is the fixed vote weight of the network's own
// structural evidence in every trust majority. Reporter majorities are taken
// per (attribute, mapping) — pooling every chain through the mapping —
// because each exact chain has a single natural reporter, the peer the query
// originated at; without pooling, a clique lying about a chain would always
// outvote its lone honest observer. The structural evidence (cycle and
// parallel-path analyses, see core's trustGroups for how its per-mapping
// ballot is derived) casts one vote of this weight alongside the reporters:
// the network's own §3 evidence is the one voter an adversary cannot
// fabricate, so it anchors the majority on mappings honest traffic rarely
// visits — exactly the mappings sybil cliques vouch for, since θ-gated
// routing avoids them. On those starved mappings the structure is the *only*
// honest voter, so its weight must beat a two-liar clique outright (a tie
// would leave the mapping undecided and the clique undiscounted); weight 3
// does, while still deferring to any three-reporter consensus that opposes a
// lone mis-localized structural ballot.
const StructuralVoteWeight = 3

// TrustIterations is how many fixed-point sweeps of majority → score the
// core runs from uniform trust after each change to the tallies. Two suffice:
// the first discounts reporters contradicted by the raw reporter majority,
// the second re-evaluates the majorities with those discounts applied (so a
// loud minority cannot bootstrap itself into the majority). A fixed count —
// rather than iterating to convergence — keeps trust a pure function of the
// accumulated tallies, independent of batch boundaries.
const TrustIterations = 2
