package core

import (
	"math"
	"sort"

	"repro/internal/factorgraph"
	"repro/internal/graph"
	"repro/internal/schema"
)

// evReplica is a peer-local replica of one feedback factor (§4.1): the
// shared immutable description plus the most recent remote message received
// for every position, unit by default (§4.3's virtual unit messages).
//
// The replica caches every outgoing factor→variable message: one shared
// forward/backward pass (factorgraph.CountingMessages) recomputes all n of
// them in O(n²) total the first time any position is read after a remote
// message changed, instead of an O(n²) dynamic program per position per
// read (O(n³) per factor per round). All remote updates must therefore go
// through setRemote.
type evReplica struct {
	ev      *evidenceRef
	remote  []factorgraph.Msg
	msgs    []factorgraph.Msg // cached factor→variable messages, all positions
	scratch []float64         // CountingMessages workspace
	dirty   bool
}

func newEvReplica(ev *evidenceRef) *evReplica {
	r := &evReplica{
		ev:     ev,
		remote: make([]factorgraph.Msg, len(ev.Mappings)),
		msgs:   make([]factorgraph.Msg, len(ev.Mappings)),
		dirty:  true,
	}
	for i := range r.remote {
		r.remote[i] = factorgraph.Unit()
	}
	return r
}

// setRemote stores the variable→factor message for one position and
// invalidates the cached outgoing messages.
func (r *evReplica) setRemote(pos int, m factorgraph.Msg) {
	r.remote[pos] = m
	r.dirty = true
}

// message returns the factor→variable message for position pos, the
// counting-factor evaluation of §3.2.1, recomputing the whole batch only
// when a remote message changed since the last read.
func (r *evReplica) message(pos int) factorgraph.Msg {
	if r.dirty {
		r.scratch = factorgraph.CountingMessages(r.ev.Vals, r.remote, r.msgs, r.scratch)
		for i := range r.msgs {
			r.msgs[i] = r.msgs[i].Normalized()
		}
		r.dirty = false
	}
	return r.msgs[pos]
}

// factorRef links a variable to a factor replica at its owner.
type factorRef struct {
	replica *evReplica
	pos     int // the variable's position within the factor
	// toVar is the latest factor→variable message (µ_{fa→mi}, §4.3).
	toVar factorgraph.Msg
	// dests caches otherOwners(pos, owner) — the remote peers this
	// position's µ must reach — computed on first send (the owner set of a
	// factor is immutable once installed).
	dests     []graph.PeerID
	destsInit bool
}

// destinations returns the cached remote destinations of this position's
// variable→factor message for the owning peer self.
func (f *factorRef) destinations(self graph.PeerID) []graph.PeerID {
	if !f.destsInit {
		f.dests = f.replica.ev.otherOwners(f.pos, self)
		f.destsInit = true
	}
	return f.dests
}

// varState is one binary correctness variable (mapping, attribute) owned by
// a peer, together with its adjacent factor replicas.
type varState struct {
	key     varKey
	factors []*factorRef
	// outBuf and sufBuf are reusable buffers for outgoingAll.
	outBuf, sufBuf []factorgraph.Msg
}

func newVarState(key varKey) *varState {
	return &varState{key: key}
}

func (vs *varState) addFactor(r *evReplica, pos int) {
	for _, f := range vs.factors {
		if f.replica == r && f.pos == pos {
			return
		}
	}
	// Keep the adjacency in canonical (evidence ID, position) order: message
	// products then accumulate in the same floating-point order however the
	// factors arrived — one scratch discovery pass, incremental epochs, or
	// query-feedback ingestion. Append order would let two structurally
	// identical networks drift visibly whenever belief propagation does not
	// converge (oscillation amplifies the non-associativity of a reordered
	// product), breaking the incremental-vs-scratch differentials.
	nf := &factorRef{replica: r, pos: pos, toVar: factorgraph.Unit()}
	at := len(vs.factors)
	for i, f := range vs.factors {
		if r.ev.ID < f.replica.ev.ID || (r.ev.ID == f.replica.ev.ID && pos < f.pos) {
			at = i
			break
		}
	}
	vs.factors = append(vs.factors, nil)
	copy(vs.factors[at+1:], vs.factors[at:])
	vs.factors[at] = nf
}

// outgoing computes the variable→factor message for the factor at index fi:
// the prior message times the product of the other factors' latest
// factor→variable messages (µ_{mi→faj} of §4.3).
func (vs *varState) outgoing(fi int, prior float64) factorgraph.Msg {
	out := factorgraph.Msg{prior, 1 - prior}
	for j, f := range vs.factors {
		if j == fi {
			continue
		}
		out = out.Mul(f.toVar)
	}
	return out.Normalized()
}

// outgoingAll computes every variable→factor message of the variable in one
// O(deg) pass using prefix/suffix leave-one-out products — the senders'
// side of the compiled-kernel optimization — instead of the O(deg²) cost of
// calling outgoing once per factor. The returned slice is reused across
// calls; consume it before the next outgoingAll on the same variable.
func (vs *varState) outgoingAll(prior float64) []factorgraph.Msg {
	d := len(vs.factors)
	if cap(vs.outBuf) < d {
		vs.outBuf = make([]factorgraph.Msg, d)
		vs.sufBuf = make([]factorgraph.Msg, d+1)
	}
	out := vs.outBuf[:d]
	suf := vs.sufBuf[:d+1]
	suf[d] = factorgraph.Unit()
	for i := d - 1; i >= 0; i-- {
		suf[i] = suf[i+1].Mul(vs.factors[i].toVar)
	}
	pre := factorgraph.Msg{prior, 1 - prior}
	for i := 0; i < d; i++ {
		out[i] = pre.Mul(suf[i+1]).Normalized()
		pre = pre.Mul(vs.factors[i].toVar)
	}
	return out
}

// posterior is the current belief: prior times all factor→variable messages
// (P(mi | {F}) of §4.3), normalized.
func (vs *varState) posterior(prior float64) float64 {
	b := factorgraph.Msg{prior, 1 - prior}
	for _, f := range vs.factors {
		b = b.Mul(f.toVar)
	}
	return b.Normalized()[factorgraph.Correct]
}

// refresh recomputes every factor→variable message from the replicas'
// current remote messages and returns how far that moved the posterior — the
// convergence measure of every schedule. Nothing else writes toVar, so the
// posterior before one refresh is the posterior after the previous one.
func (vs *varState) refresh(prior float64) float64 {
	before := vs.posterior(prior)
	for _, f := range vs.factors {
		f.toVar = f.replica.message(f.pos)
	}
	return math.Abs(vs.posterior(prior) - before)
}

// produce is one step of the round-less lazy schedule at p: refresh
// every variable, re-derive its outgoing µ messages, record each in the local
// replica and hand it to sink. Returns the largest posterior move.
func (p *Peer) produce(defPrior float64, sink func(f *factorRef, msg factorgraph.Msg)) float64 {
	maxDelta := 0.0
	for _, key := range p.sortedVarKeys() {
		vs := p.vars[key]
		prior := p.PriorFor(key.Mapping, key.Attr, defPrior)
		if d := vs.refresh(prior); d > maxDelta {
			maxDelta = d
		}
		outs := vs.outgoingAll(prior)
		for fi, f := range vs.factors {
			f.replica.setRemote(f.pos, outs[fi])
			sink(f, outs[fi])
		}
	}
	return maxDelta
}

// sortedVarKeys returns the peer's variable keys in deterministic order.
// The slice is cached — every run resolves its work list from it and every
// production of the round-less schedules iterates it — and invalidated by
// whatever mutates p.vars (installEvidence, resetInference). Callers must
// not mutate it. The length check is a
// second line of defense for in-package tests that populate p.vars
// directly; it cannot detect same-size key replacement, which is why the
// mutators clear the cache explicitly.
func (p *Peer) sortedVarKeys() []varKey {
	if p.varKeys != nil && len(p.varKeys) == len(p.vars) {
		return p.varKeys
	}
	keys := make([]varKey, 0, len(p.vars))
	for k := range p.vars {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	p.varKeys = keys
	return keys
}

// PriorFor returns the peer's prior belief P(m = correct) for a mapping and
// attribute: an explicitly set or learned prior if present, else def.
func (p *Peer) PriorFor(mapping graph.EdgeID, attr schema.Attribute, def float64) float64 {
	if p.priors != nil {
		if v, ok := p.priors[varKey{Mapping: mapping, Attr: attr}]; ok {
			return v
		}
	}
	return def
}

// SetPrior installs explicit prior knowledge about a mapping's correctness
// for an attribute (§4.4: e.g. an expert-validated mapping gets prior 1).
// The prior seeds the evidence-sample sequence used by learned updates.
func (p *Peer) SetPrior(mapping graph.EdgeID, attr schema.Attribute, prior float64) {
	p.net.journal(Mutation{Kind: MutSetPrior, Peer: p.id, Edge: mapping, Attr: attr, Prior: prior})
	if p.priors == nil {
		p.priors = make(map[varKey]float64)
	}
	if p.samples == nil {
		p.samples = make(map[varKey][]float64)
	}
	key := varKey{Mapping: mapping, Attr: attr}
	p.priors[key] = prior
	p.samples[key] = []float64{prior}
	p.net.bumpInfer()
}

// handleRemote stores an incoming remote message, decoded in place (evID is
// a view into the frame), into the matching factor replica. Unknown evidence
// IDs are ignored (stale messages after churn), as are out-of-range positions
// and messages with a NaN, infinite or negative component (malformed frames):
// honest senders emit finite non-negative messages, and one such value would
// poison every posterior of the component.
func (p *Peer) handleRemote(evID []byte, pos int, msg [2]float64) {
	r, ok := p.evs[string(evID)]
	if !ok || pos < 0 || pos >= len(r.remote) {
		return
	}
	for _, v := range msg {
		if !(0 <= v && v <= math.MaxFloat64) {
			return
		}
	}
	r.setRemote(pos, factorgraph.Msg(msg))
}

// Pinned reports whether the peer has pinned (mapping, attr) to zero
// because the mapping provides no correspondence for the attribute
// (§3.2.1's ⊥ rule).
func (p *Peer) Pinned(mapping graph.EdgeID, attr schema.Attribute) bool {
	return p.pinned[varKey{Mapping: mapping, Attr: attr}] > 0
}
