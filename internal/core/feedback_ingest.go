package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/schema"
)

// This file closes the paper's serve → evidence → inference loop (§3.2/§4):
// query results observed by the serving plane come back as probabilistic
// evidence. Each classified observation — the mapping chain a served answer
// traversed plus a confirm/contradict/lost verdict — becomes (or strengthens)
// a counting factor over the chain's correctness variables, installed through
// the same replica machinery structural discovery uses, so churn retraction,
// incremental re-detection and the scratch differential all treat query
// feedback exactly like cycle and parallel-path feedback.
//
// Observations additionally carry the identity of the reporting peer, and the
// detector weights each reporter's contribution by a trust score derived from
// how often the reporter's net verdicts are contradicted by the trust-weighted
// majority of observers of the mappings it reported on, structural evidence
// voting alongside the reporters (see internal/feedback/trust.go).
// Trust is a pure function of the accumulated per-factor, per-reporter
// tallies, recomputed after every batch, so incremental maintenance and a
// from-scratch replay of the same observations land on bit-identical factor
// state. On honest networks every score stays exactly 1 and the weighted
// arithmetic degenerates to the unweighted integer counts bit-for-bit.

// QueryFeedback is one classified query-result observation handed back by
// the serving plane: the attribute the query referenced (in the origin
// peer's schema, matching the keying convention of structural evidence), the
// mapping chain the answer traversed, and the polarity the verdict mapped
// to. Reporter names the peer the judged answer originated at — the identity
// trust weighting discounts coordinated liars by; the zero value is a valid
// (anonymous) reporter. The chain slice is treated as immutable.
type QueryFeedback struct {
	Attr     schema.Attribute
	Chain    []graph.EdgeID
	Polarity feedback.Polarity
	Reporter graph.PeerID
}

// FeedbackOptions parameterizes feedback ingestion.
type FeedbackOptions struct {
	// Delta is Δ, the compensating-error probability of §4.5. 0 derives it
	// per chain from the origin schema as 1/(size−1).
	Delta float64
	// Noise is the assumed verdict error rate ε: the probability that a
	// confirm/contradict verdict is flipped (a user blessing a wrong answer
	// or rejecting a right one). It keeps every factor value strictly
	// positive, so noisy feedback can never pin a posterior to an absolute
	// 0 or 1 the way hard structural evidence can. 0 selects the default
	// 0.02; values must stay below 0.5 (an oracle worse than a coin flip
	// carries no signal).
	Noise float64
	// NoTrust disables per-reporter trust weighting: every factor counts its
	// raw confirm/contradict totals, however poorly their reporters agree
	// with the majority elsewhere. It exists as the vulnerable baseline the
	// adversarial scenarios demonstrate their attacks against (and is a
	// bit-exact no-op on honest networks, where all trust scores are 1
	// anyway).
	NoTrust bool
}

func (o FeedbackOptions) withDefaults() (FeedbackOptions, error) {
	if !(0 <= o.Delta && o.Delta <= 1) {
		return o, fmt.Errorf("core: feedback delta %v out of [0,1]", o.Delta)
	}
	if o.Noise == 0 {
		o.Noise = 0.02
	}
	if !(0 <= o.Noise && o.Noise < 0.5) {
		return o, fmt.Errorf("core: feedback noise %v out of [0,0.5)", o.Noise)
	}
	return o, nil
}

// FeedbackReport summarizes one ingestion pass.
type FeedbackReport struct {
	// Observations is the number of observations processed.
	Observations int
	// Positive/Negative/Neutral count observations by polarity. Neutral
	// observations (lost results) are counted but install no factor: unlike
	// a structural ⊥, a lost query result does not identify the mapping
	// that lost it.
	Positive, Negative, Neutral int
	// NewFactors counts freshly installed feedback factors; Bumped counts
	// observations folded into an existing factor by raising its count.
	NewFactors, Bumped int
	// Stale counts observations whose chain crosses a mapping that no
	// longer exists (answers served from a snapshot that churn has since
	// overtaken). They are skipped: the evidence judged a revision that is
	// gone.
	Stale int
	// DirtyVars is the number of (mapping, attribute) variables marked for
	// the next incremental re-detection.
	DirtyVars int
}

// maxFeedbackWeight caps the per-factor total observation weight: beyond it
// the factor is numerically indistinguishable from certainty and further
// powers only risk underflow. The cap scales the confirm and contradict
// counts proportionally — capping each side independently would erase the
// evidence ratio (a hot clean chain with 90% confirms and 10% noisy
// contradicts must never degenerate to 50/50, where the combined conditional
// would favour "two or more wrong" and invert every posterior on the chain).
const maxFeedbackWeight = 64

// reporterTally is one reporter's accumulated confirm/contradict counts on
// one factor.
type reporterTally struct {
	pos, neg int
}

// fbFactor tracks one installed feedback factor per (attribute, chain): the
// shared evidence reference (whose Vals all replicas read), the
// single-observation conditionals of both polarities, the raw observation
// counts of each, and the per-reporter split of those counts trust weighting
// rescales.
type fbFactor struct {
	ref              *evidenceRef
	posBase, negBase []float64
	pos, neg         int
	tallies          map[graph.PeerID]*reporterTally
}

// tally returns (allocating if needed) the tally of one reporter.
func (ff *fbFactor) tally(r graph.PeerID) *reporterTally {
	tl, ok := ff.tallies[r]
	if !ok {
		tl = &reporterTally{}
		ff.tallies[r] = tl
	}
	return tl
}

// sortedReporters returns the factor's reporters in deterministic order —
// the float accumulation order of every trust-weighted sum.
func (ff *fbFactor) sortedReporters() []graph.PeerID {
	out := make([]graph.PeerID, 0, len(ff.tallies))
	for r := range ff.tallies {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// trustOf reads a reporter's score from a sparse trust map (absent means
// full trust).
func trustOf(trust map[graph.PeerID]float64, r graph.PeerID) float64 {
	if t, ok := trust[r]; ok {
		return t
	}
	return 1
}

// effectiveCounts folds the per-reporter tallies into the factor's weighted
// confirm/contradict counts. When trust weighting is disabled, or every
// contributing reporter holds full trust, the raw integer counts are
// returned directly — bit-identical to the unweighted detector, not merely
// close (a sum of 1.0-weighted integers could round the same way, but the
// direct path makes the honest-network no-op structural rather than
// numerical).
func (ff *fbFactor) effectiveCounts(trust map[graph.PeerID]float64, noTrust bool) (float64, float64) {
	if noTrust {
		return float64(ff.pos), float64(ff.neg)
	}
	weighted := false
	for r := range ff.tallies {
		if trustOf(trust, r) != 1 {
			weighted = true
			break
		}
	}
	if !weighted {
		return float64(ff.pos), float64(ff.neg)
	}
	var p, n float64
	for _, r := range ff.sortedReporters() {
		t := trustOf(trust, r)
		tl := ff.tallies[r]
		p += t * float64(tl.pos)
		n += t * float64(tl.neg)
	}
	return p, n
}

// refresh recomputes the factor's values from the current counts —
// elementwise posBase^p · negBase^n with (p, n) the trust-weighted counts
// scaled onto the weight cap — and its dominant polarity.
func (ff *fbFactor) refresh(trust map[graph.PeerID]float64, noTrust bool) {
	p, n := ff.effectiveCounts(trust, noTrust)
	if total := p + n; total > maxFeedbackWeight {
		scale := maxFeedbackWeight / total
		p, n = p*scale, n*scale
	}
	for k := range ff.ref.Vals {
		ff.ref.Vals[k] = math.Pow(ff.posBase[k], p) * math.Pow(ff.negBase[k], n)
	}
	if p >= n {
		ff.ref.Polarity = feedback.Positive
	} else {
		ff.ref.Polarity = feedback.Negative
	}
}

// fbKey is the canonical aggregation key of an observation: attribute plus
// chain. Both polarities of the same chain — and every reporter of it —
// share one factor.
func fbKey(o QueryFeedback) string {
	var b strings.Builder
	b.WriteString("q!")
	b.WriteString(string(o.Attr))
	for _, e := range o.Chain {
		b.WriteByte('|')
		b.WriteString(string(e))
	}
	return b.String()
}

// IngestFeedback installs classified query-result observations as counting
// factors over the traversed mapping chains, incrementally: all
// observations of the same (attribute, chain) fold into one factor — its
// conditional is the product of the confirm and contradict conditionals
// raised to their (trust-weighted) observation counts — new chains install a
// fresh factor replica at every owner along the chain, and every touched
// (mapping, attribute) variable is marked dirty for the next bounded
// re-detection (DetectOptions.Incremental). Ingestion mutates the network
// and must be called from the goroutine that owns it — the one running
// detection and churn — never concurrently with serving reads (which only
// touch published snapshots).
func (n *Network) IngestFeedback(opts FeedbackOptions, obs ...QueryFeedback) (FeedbackReport, error) {
	// Aggregate the batch by canonical key first: the final factor state
	// must not depend on the (concurrent, nondeterministic) order the
	// serving clients enqueued their observations in. Groups split by
	// reporter — trust weighting needs the per-reporter counts — but every
	// reporter's group of the same (attribute, chain) lands on one factor.
	var pos, neg, neutral int
	groups := make(map[string]*FeedbackGroup)
	for _, o := range obs {
		switch o.Polarity {
		case feedback.Positive:
			pos++
		case feedback.Negative:
			neg++
		default:
			neutral++
			continue
		}
		if len(o.Chain) == 0 {
			continue // local answer: no mapping to judge
		}
		key := fbKey(o) + "\x00" + string(o.Reporter)
		g, ok := groups[key]
		if !ok {
			g = &FeedbackGroup{Attr: o.Attr, Chain: append([]graph.EdgeID(nil), o.Chain...), Reporter: o.Reporter}
			groups[key] = g
		}
		if o.Polarity == feedback.Positive {
			g.Pos++
		} else {
			g.Neg++
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	batch := make([]FeedbackGroup, 0, len(groups))
	for _, k := range keys {
		batch = append(batch, *groups[k])
	}

	rep, err := n.IngestFeedbackGroups(opts, batch...)
	if err != nil {
		return rep, err
	}
	rep.Observations = len(obs)
	rep.Positive, rep.Negative, rep.Neutral = pos, neg, neutral
	return rep, nil
}

// IngestFeedbackGroups is the aggregated (and journaled) form of
// IngestFeedback: each group carries one (attribute, chain, reporter) with
// its folded confirm/contradict counts, sorted by canonical key. This is the
// entry point WAL recovery replays — the journal records groups, not raw
// observations, because the group is what deterministically mutates the
// factor state.
func (n *Network) IngestFeedbackGroups(opts FeedbackOptions, batch ...FeedbackGroup) (FeedbackReport, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FeedbackReport{}, err
	}
	var rep FeedbackReport
	for _, g := range batch {
		rep.Observations += g.Pos + g.Neg
		rep.Positive += g.Pos
		rep.Negative += g.Neg
	}
	if len(batch) > 0 {
		optsCopy := opts
		if err := n.journal(Mutation{Kind: MutFeedback, FbOpts: &optsCopy, Groups: batch}); err != nil {
			return FeedbackReport{}, err
		}
		n.fbOpts = opts
	}

	if n.fbFactors == nil {
		n.fbFactors = make(map[string]*fbFactor)
	}
	if n.fbDirty == nil {
		n.fbDirty = make(map[varKey]bool)
	}
	// Phase 1: fold every group into its factor's raw and per-reporter
	// counts. Values are not recomputed yet — the trust scores the weighted
	// counts need depend on the whole batch's tallies.
	touched := make(map[string]bool)
	created := make(map[string]bool)
	for _, g := range batch {
		key := fbKey(QueryFeedback{Attr: g.Attr, Chain: g.Chain})
		stale := false
		for _, e := range g.Chain {
			if _, ok := n.topo.Edge(e); !ok {
				stale = true
				break
			}
		}
		if stale {
			rep.Stale += g.Pos + g.Neg
			continue
		}
		ff, ok := n.fbFactors[key]
		if !ok {
			dd := opts.Delta
			if dd == 0 {
				if owner, ok := n.Owner(g.Chain[0]); ok {
					dd = feedback.Delta(owner.schema.Len())
				} else {
					dd = feedback.Delta(2)
				}
			}
			arity := len(g.Chain)
			posBase, _ := feedback.Evidence{Polarity: feedback.Positive}.NoisyCountingVals(dd, opts.Noise, arity)
			negBase, _ := feedback.Evidence{Polarity: feedback.Negative}.NoisyCountingVals(dd, opts.Noise, arity)
			ref := &evidenceRef{
				ID:       key,
				Attr:     g.Attr,
				Mappings: append([]graph.EdgeID(nil), g.Chain...),
				Vals:     make([]float64, arity+1),
				Owners:   make([]graph.PeerID, arity),
			}
			for i, e := range g.Chain {
				edge, _ := n.topo.Edge(e)
				ref.Owners[i] = edge.From
			}
			ff = &fbFactor{ref: ref, posBase: posBase, negBase: negBase, tallies: make(map[graph.PeerID]*reporterTally)}
			n.fbFactors[key] = ff
			n.installEvidence(ref)
			rep.NewFactors++
			created[key] = true
		} else if !created[key] {
			rep.Bumped += g.Pos + g.Neg
		}
		ff.pos += g.Pos
		ff.neg += g.Neg
		tl := ff.tally(g.Reporter)
		tl.pos += g.Pos
		tl.neg += g.Neg
		touched[key] = true
	}

	// Phase 2: recompute the trust scores from the updated tallies and widen
	// the refresh set to every factor a score change reaches — a reporter
	// discounted by this batch's disagreements must see its past
	// contributions rescaled everywhere, not only where it just reported.
	n.retrust(touched)

	// Phase 3: recompute the touched factors' values in canonical order and
	// mark their replicas and variables for the next incremental
	// re-detection.
	n.refreshFeedback(touched)
	rep.DirtyVars = len(n.fbDirty)
	return rep, nil
}

// resyncTrust recomputes reporter trust after a structural evidence change
// (incremental discovery, mapping retraction): the structural votes anchoring
// every majority just moved, and the feedback factor values baked with the
// old scores must follow before anything reads them — otherwise incremental
// maintenance would drift from a from-scratch replay, which only ever sees
// the final structure. A no-op whenever no score actually changes, which is
// every honest network.
func (n *Network) resyncTrust() {
	if n.fbOpts.NoTrust || len(n.fbFactors) == 0 {
		return
	}
	touched := make(map[string]bool)
	n.retrust(touched)
	n.refreshFeedback(touched)
}

// retrust recomputes the per-reporter trust map from the accumulated tallies
// and adds every factor affected by a score change to touched.
func (n *Network) retrust(touched map[string]bool) {
	if n.fbOpts.NoTrust {
		n.fbTrust = nil
		return
	}
	next := n.recomputeTrust()
	changed := make(map[graph.PeerID]bool)
	for r, t := range next {
		if trustOf(n.fbTrust, r) != t {
			changed[r] = true
		}
	}
	for r, t := range n.fbTrust {
		if trustOf(next, r) != t {
			changed[r] = true
		}
	}
	n.fbTrust = next
	if len(changed) == 0 {
		return
	}
	for key, ff := range n.fbFactors {
		for r := range ff.tallies {
			if changed[r] {
				touched[key] = true
				break
			}
		}
	}
}

// trustGroup aggregates one (attribute, mapping) pair's votes: how many
// positive structural evidences cover the mapping, how many negative ones
// incriminate it as their sole suspect, and every reporter's net observation
// count over the chains that cross it. from/to are the mapping's endpoints:
// their votes are self-interested — a sybil or self-promoting peer vouches
// precisely for its own mappings — so they carry no weight in this group's
// ballot and no corroborating force (they still vote on everyone else's
// mappings, and they remain convictable everywhere but under loneOwner).
type trustGroup struct {
	structPos, structSole int
	votes                 map[graph.PeerID]int
	reporters             []graph.PeerID // sorted keys of votes
	from, to              graph.PeerID
}

// loneOwner reports whether the mapping's owner (its from endpoint) disputes
// the verdict (+1 or -1) while its to endpoint is silent; a structure-only
// verdict disputed that way convicts nobody. Structure is fallible (a
// compensated cycle certifies a corrupted mapping, a sole-suspect analysis
// then blames a clean one), and the owner crosses its own mapping on every
// query it originates: at serving volume its truthful dissent passes any
// threshold within one epoch, since the epoch routes on one snapshot. A route
// never re-enters its origin, so a to endpoint's vote marks collusion.
func (g *trustGroup) loneOwner(verdict int) bool {
	net := g.votes[g.from]
	return g.votes[g.to] == 0 && net != 0 && (net > 0) != (verdict > 0)
}

// structVote is the structural evidence's ballot on one mapping. The
// asymmetry mirrors the ranking invariant: a positive structure (a cycle
// composing to the identity) certifies every member, so any positive cover
// votes +1 regardless of how many broken structures also cross the mapping.
// A negative structure only proves *some* member is broken and cannot
// localize blame by itself; it votes -1 only against its sole suspect — the
// one member no positive structure speaks for, when every other member has
// positive cover. A broken structure with two or more uncovered members
// abstains: convicting all of them would outvote the honest confirmers of
// whichever ones are actually clean (a freshly added mapping whose only
// cycles cross a corrupted neighbour must not inherit the neighbour's
// blame).
func (g *trustGroup) structVote() int {
	switch {
	case g.structPos > 0:
		return 1
	case g.structSole > 0:
		return -1
	}
	return 0
}

// trustGroups builds the (attribute, mapping) vote groups from the current
// evidence and feedback state. Trust majorities are taken at this granularity
// — not per exact chain — because each exact chain has a single natural
// reporter, the peer its feedback query originated at: only by pooling every
// chain through a mapping do independent honest observers of the same mapping
// meet (and outnumber) a clique lying about it. All accumulation is integer,
// so the map iteration order here cannot perturb the result.
func (n *Network) trustGroups() map[string]*trustGroup {
	groups := map[string]*trustGroup{}
	at := func(a schema.Attribute, m graph.EdgeID) *trustGroup {
		k := string(a) + "|" + string(m)
		g, ok := groups[k]
		if !ok {
			g = &trustGroup{votes: map[graph.PeerID]int{}}
			if e, ok := n.topo.Edge(m); ok {
				g.from, g.to = e.From, e.To
			}
			groups[k] = g
		}
		return g
	}
	seen := map[string]bool{}
	var negRefs []*evidenceRef
	for _, p := range n.peers {
		for id, r := range p.evs {
			if seen[id] || strings.HasPrefix(id, "q!") {
				continue // each shared evidence ref votes once; feedback is not structure
			}
			seen[id] = true
			switch r.ev.Polarity {
			case feedback.Positive:
				for _, m := range r.ev.Mappings {
					at(r.ev.Attr, m).structPos++
				}
			case feedback.Negative:
				negRefs = append(negRefs, r.ev)
			}
		}
	}
	// Second pass, after all positive cover is known: each negative structure
	// incriminates only a sole suspect (see structVote).
	for _, ev := range negRefs {
		suspect := graph.EdgeID("")
		suspects := 0
		for _, m := range ev.Mappings {
			if at(ev.Attr, m).structPos == 0 && m != suspect {
				suspect = m
				suspects++
			}
		}
		if suspects == 1 {
			at(ev.Attr, suspect).structSole++
		}
	}
	for _, ff := range n.fbFactors {
		for r, tl := range ff.tallies {
			net := tl.pos - tl.neg
			if net == 0 {
				continue
			}
			for _, m := range ff.ref.Mappings {
				at(ff.ref.Attr, m).votes[r] += net
			}
		}
	}
	for _, g := range groups {
		g.reporters = make([]graph.PeerID, 0, len(g.votes))
		for r := range g.votes {
			g.reporters = append(g.reporters, r)
		}
		sort.Slice(g.reporters, func(i, j int) bool { return g.reporters[i] < g.reporters[j] })
	}
	return groups
}

// recomputeTrust derives the sparse trust map (full-trust reporters are
// omitted) from the current tallies and structural evidence, in
// TrustIterations fixed-point sweeps from uniform trust. Each sweep runs two
// levels:
//
//  1. Per (attribute, mapping): a trust-weighted majority over that mapping's
//     observers decides its consensus correctness. Majorities count
//     reporters' weighted votes, not their observation volumes — a single
//     liar replaying its lie a thousand times still casts one vote — and the
//     structural evidence covering the mapping votes alongside them with
//     fixed weight (feedback.StructuralVoteWeight), anchoring the majority
//     on mappings honest traffic avoids.
//  2. Per factor (exact chain): the chain's consensus verdict follows the
//     paper's path semantics — contradicted if any member mapping's
//     consensus is negative, confirmed if every member's is positive — and
//     each reporter's net observations on the chain land as agreement or
//     disagreement with it, at full volume (the louder a contradicted lie,
//     the faster trust decays). Scoring whole verdicts, not per-mapping
//     echoes of them, keeps one noise-flipped verdict on a long chain worth
//     one disagreement rather than chain-length many.
//
// The result is a pure function of the accumulated tallies and the installed
// structural evidence, independent of how many batches delivered them.
func (n *Network) recomputeTrust() map[graph.PeerID]float64 {
	groups := n.trustGroups()
	gkeys := make([]string, 0, len(groups))
	for k := range groups {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	fkeys := make([]string, 0, len(n.fbFactors))
	for k := range n.fbFactors {
		fkeys = append(fkeys, k)
	}
	sort.Strings(fkeys)
	cur := map[graph.PeerID]float64{}
	for iter := 0; iter < feedback.TrustIterations; iter++ {
		// Level 1: consensus correctness per (attribute, mapping). A
		// mapping's own endpoints are self-interested and hold no ballot on
		// it. Alongside the verdict, each group records the contradicted
		// volume it takes to convict a dissenter, because the structural
		// ballot alone is fallible in both directions: a cycle can close
		// over compensating errors (certifying a corrupted mapping), and a
		// sole-suspect analysis can pin the wrong member when the true
		// culprit hides behind such a coincidental cover. A verdict seconded
		// by a full-trust disinterested reporter convicts at the ordinary
		// TrustMinVolume; a positive verdict resting on structure alone only
		// at the elevated TrustStructVolume (see its rationale in
		// internal/feedback); a sole-suspect negative verdict convicts at
		// ordinary volume only while no full-trust disinterested reporter
		// disputes it (the sybil case: the only voices for the mapping are
		// its own endpoints) — a disputed one, like any other unseconded
		// verdict, still steers detection but convicts nobody. Neither
		// structure-only verdict convicts when the mapping's owner alone
		// disputes it (see loneOwner).
		consensus := make(map[string]int, len(groups))
		convictAt := make(map[string]int, len(groups)) // 0: never convicts
		for _, k := range gkeys {
			g := groups[k]
			w := feedback.StructuralVoteWeight * float64(g.structVote())
			support, oppose := 0, 0 // full-trust disinterested sign votes
			for _, r := range g.reporters {
				if r == g.from || r == g.to {
					continue
				}
				sign := 0
				switch net := g.votes[r]; {
				case net > 0:
					sign = 1
				case net < 0:
					sign = -1
				}
				w += float64(sign) * trustOf(cur, r)
				if trustOf(cur, r) == 1 {
					switch sign {
					case 1:
						support++
					case -1:
						oppose++
					}
				}
			}
			switch {
			case w > 0:
				consensus[k] = 1
				switch {
				case support > 0:
					convictAt[k] = feedback.TrustMinVolume
				case !g.loneOwner(1):
					convictAt[k] = feedback.TrustStructVolume
				}
			case w < 0:
				consensus[k] = -1
				if oppose > 0 || (g.structSole > 0 && support == 0 && !g.loneOwner(-1)) {
					convictAt[k] = feedback.TrustMinVolume
				}
			}
		}
		// Level 2: score each reporter's net chain verdicts against the
		// chains' consensus. A contradiction counts only when its net volume
		// reaches the chain's conviction threshold: for a negative chain
		// verdict the cheapest convicting member (the verdict is a
		// disjunction — one bad member suffices), for a positive one the
		// dearest member, and only if every member can convict at all (the
		// verdict is a conjunction — a dissenter may be the one honest voice
		// about exactly the member nobody seconds).
		dis := make(map[graph.PeerID]int)
		worst := make(map[graph.PeerID]int)
		for _, k := range fkeys {
			ff := n.fbFactors[k]
			verdict, negAt, posAt, posOK := 1, 0, 0, true
			for _, m := range ff.ref.Mappings {
				gk := string(ff.ref.Attr) + "|" + string(m)
				cv := convictAt[gk]
				switch consensus[gk] {
				case -1:
					verdict = -1
					if cv > 0 && (negAt == 0 || cv < negAt) {
						negAt = cv
					}
				case 0:
					if verdict == 1 {
						verdict = 0
					}
				}
				if cv == 0 {
					posOK = false
				} else if cv > posAt {
					posAt = cv
				}
			}
			threshold := 0
			switch {
			case verdict == -1:
				threshold = negAt
			case verdict == 1 && posOK:
				threshold = posAt
			}
			if threshold == 0 {
				continue // undecided or unconvicting: the chain teaches nothing
			}
			for _, r := range ff.sortedReporters() {
				tl := ff.tallies[r]
				net := tl.pos - tl.neg
				if net == 0 || (net > 0) == (verdict > 0) {
					continue
				}
				mag := net
				if mag < 0 {
					mag = -mag
				}
				if mag < threshold {
					continue
				}
				dis[r] += mag
				if mag > worst[r] {
					worst[r] = mag
				}
			}
		}
		next := map[graph.PeerID]float64{}
		for r, d := range dis {
			if s := feedback.TrustScore(worst[r], d); s != 1 {
				next[r] = s
			}
		}
		cur = next
	}
	return cur
}

// refreshFeedback recomputes the values of the given factors in canonical
// key order, invalidates their replicas' cached messages and marks their
// variables dirty for the next incremental re-detection.
func (n *Network) refreshFeedback(touched map[string]bool) {
	if len(touched) == 0 {
		return
	}
	if n.fbDirty == nil {
		n.fbDirty = make(map[varKey]bool)
	}
	keys := make([]string, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ff, ok := n.fbFactors[key]
		if !ok {
			continue
		}
		ff.refresh(n.fbTrust, n.fbOpts.NoTrust)
		// The replicas cache their outgoing messages against the old
		// values; every owner must recompute on the next read.
		for _, o := range ff.ref.Owners {
			if p := n.peers[o]; p != nil {
				if r, ok := p.evs[key]; ok {
					r.dirty = true
				}
			}
		}
		for _, e := range ff.ref.Mappings {
			n.fbDirty[varKey{Mapping: e, Attr: ff.ref.Attr}] = true
		}
	}
}

// ReporterTrust returns the current trust score of a reporter: 1 unless its
// reports have been contradicted by the trust-weighted majority beyond the
// decay threshold (see internal/feedback.TrustScore).
func (n *Network) ReporterTrust(id graph.PeerID) float64 {
	return trustOf(n.fbTrust, id)
}

// DiscountedReporters returns the reporters currently holding less than full
// trust, sorted.
func (n *Network) DiscountedReporters() []graph.PeerID {
	out := make([]graph.PeerID, 0, len(n.fbTrust))
	for r := range n.fbTrust {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReporterContribution returns the number of feedback factors carrying
// observations from the given reporter and the reporter's total observation
// count across them — the footprint RemovePeer must retract.
func (n *Network) ReporterContribution(id graph.PeerID) (factors, weight int) {
	for _, ff := range n.fbFactors {
		if tl, ok := ff.tallies[id]; ok {
			factors++
			weight += tl.pos + tl.neg
		}
	}
	return factors, weight
}

// FeedbackFactors returns the number of installed query-feedback factors and
// the total observation weight folded into them (the conditionals saturate
// at the per-factor cap; the counts keep accumulating so the confirm/
// contradict ratio stays exact).
func (n *Network) FeedbackFactors() (factors, weight int) {
	for _, ff := range n.fbFactors {
		factors++
		weight += ff.pos + ff.neg
	}
	return factors, weight
}

// DirtyFeedbackVars returns how many (mapping, attribute) variables are
// marked for the next incremental re-detection.
func (n *Network) DirtyFeedbackVars() int { return len(n.fbDirty) }

// dropFeedbackFor retracts the feedback bookkeeping derived from removed
// mappings: the aggregation index entries (so later identical observations
// install a fresh factor instead of bumping a ghost) and the dirty marks.
// The factor replicas and variable references themselves are retracted by
// dropEvidenceFor, which treats feedback factors like any other evidence.
func (n *Network) dropFeedbackFor(removed map[graph.EdgeID]bool) {
	for key, ff := range n.fbFactors {
		for _, e := range ff.ref.Mappings {
			if removed[e] {
				delete(n.fbFactors, key)
				break
			}
		}
	}
	for k := range n.fbDirty {
		if removed[k.Mapping] {
			delete(n.fbDirty, k)
		}
	}
}

// dropReporter eagerly retracts a removed peer's feedback contributions: its
// tallies leave every factor (factors it was the sole reporter of are
// retracted entirely, replicas and variable references included), trust is
// recomputed without its reports, and every affected factor's values are
// refreshed and marked for re-detection — the reporter-side mirror of the
// evidence retraction RemoveMapping performs.
func (n *Network) dropReporter(id graph.PeerID) {
	touched := make(map[string]bool)
	for key, ff := range n.fbFactors {
		tl, ok := ff.tallies[id]
		if !ok {
			continue
		}
		ff.pos -= tl.pos
		ff.neg -= tl.neg
		delete(ff.tallies, id)
		if ff.pos+ff.neg == 0 {
			n.retractFeedbackFactor(key, ff)
			continue
		}
		touched[key] = true
	}
	delete(n.fbTrust, id)
	n.retrust(touched)
	n.refreshFeedback(touched)
}

// retractFeedbackFactor removes one feedback factor whose observations are
// all gone: the aggregation index entry, every owner's replica, the factor
// references of adjacent variables (dropping variables left with no
// factors), and the dirty marks of variables that no longer exist. The
// surviving variables are marked dirty — losing a factor moves their
// posteriors.
func (n *Network) retractFeedbackFactor(key string, ff *fbFactor) {
	if n.fbDirty == nil {
		n.fbDirty = make(map[varKey]bool)
	}
	delete(n.fbFactors, key)
	ev := ff.ref
	for _, o := range ev.Owners {
		p := n.peers[o]
		if p == nil {
			continue
		}
		if _, ok := p.evs[key]; !ok {
			continue
		}
		delete(p.evs, key)
		for vk, vs := range p.vars {
			kept := vs.factors[:0]
			removed := false
			for _, f := range vs.factors {
				if f.replica.ev.ID == key {
					removed = true
					continue
				}
				kept = append(kept, f)
			}
			vs.factors = kept
			if !removed {
				continue
			}
			if len(vs.factors) == 0 {
				delete(p.vars, vk)
				delete(n.fbDirty, vk)
			} else {
				n.fbDirty[vk] = true
			}
		}
		p.varKeys = nil
	}
}
