package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/factorgraph"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
	"repro/internal/wire"
)

// escalationPatience is how many consecutive rounds the residual frontier may
// fail to shrink below its best size before the component is declared
// oscillating and escalated to the lockstep sweeps. Converging components
// shed frontier variables steadily, so a long plateau is the signature of a
// frustrated loop; the value only trades wasted frontier rounds against a
// slightly earlier escalation, never correctness.
const escalationPatience = 24

// This file is the residual-scheduled, component-parallel incremental
// re-detection engine. The lockstep schedule in detect.go recomputes every
// in-scope message every round; after the first few rounds of a feedback
// refresh almost all of them land within tolerance of what the receiver
// already holds, so the sweeps mostly reconfirm converged state. Here each
// dirty component instead keeps an active frontier: a variable re-sends a
// message only when it moved beyond tolerance, a variable re-enters the
// frontier only when one of its incoming factor→variable messages moved
// beyond tolerance, and the component retires the moment its frontier
// empties — the bucketed form of residual belief propagation (the residual
// order is the frontier; within a round, canonical variable order keeps the
// float arithmetic reproducible). Components are closed under message flow,
// so they also run independently: each gets its own transport and, when
// DetectOptions.Workers allows, its own worker — results merge in canonical
// component order, making the outcome identical at any worker count.
//
// The schedule assumes reliable delivery (a skipped message must already be
// held by its receiver, which loss would break); RunDetection falls back to
// the lockstep sweeps when PSend < 1.

// detectComponent is one connected component of the incremental closure:
// the unit the residual schedule converges — and parallelizes — over.
type detectComponent struct {
	// id is the canonical identity: the smallest member variable. It orders
	// the merge and seeds the component's transport.
	id varKey
	// vars lists the member variables in canonical order; varSet mirrors it
	// for membership tests, owner resolves each to its owning peer.
	vars   []varKey
	varSet map[varKey]bool
	owner  map[varKey]*Peer
	evs    map[string]bool
	// peers are the owning peers involved, sorted by ID — the registration
	// set of the component's private transport.
	peers []*Peer
}

// incrementalComponents computes the closure of the current dirty set —
// starting from every (mapping, attribute) variable feedback touched,
// alternate variable → adjacent factors → their variables until fixpoint —
// and partitions it into connected components of the bipartite factor graph.
// Messages never cross component boundaries, so re-running belief
// propagation inside the closure (from fresh unit messages) reproduces
// exactly what a full from-scratch detection would compute there, while
// everything outside keeps its converged state. Seeds are visited in
// canonical variable order, so the component list — and everything derived
// from it — is deterministic.
func (n *Network) incrementalComponents() (*detectScope, []*detectComponent) {
	scope := &detectScope{vars: make(map[varKey]bool), evs: make(map[string]bool)}
	seeds := make([]varKey, 0, len(n.fbDirty))
	for key := range n.fbDirty {
		seeds = append(seeds, key)
	}
	sortVarKeys(seeds)

	var comps []*detectComponent
	for _, seed := range seeds {
		if scope.vars[seed] {
			continue
		}
		comp := n.growComponent(seed, scope)
		if comp != nil {
			comps = append(comps, comp)
		}
	}
	return scope, comps
}

// growComponent runs the BFS closure from one dirty seed, marking the shared
// scope as it goes. Returns nil when the seed has no live variable (feedback
// on state churn already retracted).
func (n *Network) growComponent(seed varKey, scope *detectScope) *detectComponent {
	comp := &detectComponent{
		varSet: make(map[varKey]bool),
		evs:    make(map[string]bool),
		owner:  make(map[varKey]*Peer),
	}
	// The participating peers: every variable owner plus every replica
	// holder of a member factor (a peer can replicate a factor without
	// owning any in-scope variable — it still must receive frames).
	seen := make(map[graph.PeerID]*Peer)
	var queue []varKey
	push := func(key varKey) {
		if scope.vars[key] {
			return
		}
		if p, ok := n.Owner(key.Mapping); ok {
			if _, exists := p.vars[key]; exists {
				scope.vars[key] = true
				comp.varSet[key] = true
				comp.owner[key] = p
				comp.vars = append(comp.vars, key)
				queue = append(queue, key)
				seen[p.id] = p
			}
		}
	}
	push(seed)
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		p := comp.owner[key]
		for _, f := range p.vars[key].factors {
			ev := f.replica.ev
			if comp.evs[ev.ID] {
				continue
			}
			comp.evs[ev.ID] = true
			scope.evs[ev.ID] = true
			for _, o := range ev.Owners {
				if op, ok := n.peers[o]; ok {
					seen[op.id] = op
				}
			}
			for _, m := range ev.Mappings {
				push(varKey{Mapping: m, Attr: ev.Attr})
			}
		}
	}
	if len(comp.vars) == 0 {
		return nil
	}
	sortVarKeys(comp.vars)
	comp.id = comp.vars[0]
	comp.peers = make([]*Peer, 0, len(seen))
	for _, p := range seen {
		comp.peers = append(comp.peers, p)
	}
	sort.Slice(comp.peers, func(i, j int) bool { return comp.peers[i].id < comp.peers[j].id })
	return comp
}

// sortVarKeys orders variable keys canonically (mapping, then attribute).
func sortVarKeys(keys []varKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Mapping != keys[j].Mapping {
			return keys[i].Mapping < keys[j].Mapping
		}
		return keys[i].Attr < keys[j].Attr
	})
}

// splitmix64 is the 64-bit SplitMix64 finalizer — the same mixer the sim
// layer derives its stream seeds with; nearby inputs share no structure.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// componentSeed derives a component transport's seed from the run seed and
// the component's canonical identity, so a component is seeded identically
// whether it runs first, last, serial or on a worker pool.
func componentSeed(seed int64, id varKey) int64 {
	h := fnv.New64a()
	h.Write([]byte(id.Mapping))
	h.Write([]byte{0})
	h.Write([]byte(id.Attr))
	return int64(splitmix64(uint64(seed) ^ h.Sum64()))
}

// componentResult is one component run's contribution to the merged
// DetectResult.
type componentResult struct {
	rounds    int
	converged bool
	remote    int
	stats     network.Stats
	work      DetectWork
	err       error
}

// runResidualDetection is the incremental path of RunDetection under
// reliable delivery: decompose the dirty closure into components, reset
// their messages, and converge each on the residual schedule — serially or
// on a worker pool. The merged result is bit-identical at any worker count.
func (n *Network) runResidualDetection(opts DetectOptions) (DetectResult, error) {
	scope, comps := n.incrementalComponents()
	n.fbDirty = nil // consumed: the next incremental run starts clean
	res := DetectResult{TouchedVars: n.scopeSize(scope)}
	res.Work.Resets = n.resetScope(scope)
	res.Work.Components = len(comps)
	res.TouchedEdges = make(map[graph.EdgeID]bool, len(scope.vars))
	for key := range scope.vars {
		res.TouchedEdges[key.Mapping] = true
	}

	// Pre-warm the sorted-key caches: snapshotPosteriors iterates them after
	// the runs, and a lazy rebuild inside a worker would be a write race.
	for _, c := range comps {
		for _, p := range c.peers {
			p.sortedVarKeys()
		}
	}

	outs := make([]componentResult, len(comps))
	run := func(i int) {
		outs[i] = n.runComponent(comps[i], opts, componentSeed(opts.Seed, comps[i].id))
	}
	workers := opts.Workers
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		for i := range comps {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(comps) {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}

	// Canonical merge: components are ordered by identity, so the summed
	// counters never depend on completion order.
	res.Converged = true
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return DetectResult{}, o.err
		}
		if o.rounds > res.Rounds {
			res.Rounds = o.rounds
		}
		if !o.converged {
			res.Converged = false
		}
		res.RemoteMessages += o.remote
		res.Transport.Sent += o.stats.Sent
		res.Transport.Delivered += o.stats.Delivered
		res.Transport.Dropped += o.stats.Dropped
		res.Work.Add(o.work)
	}
	res.Posteriors = n.snapshotPosteriors(opts.DefaultPrior)
	if opts.Publish != nil {
		n.PublishSnapshot(DetectResult{Posteriors: res.Posteriors, TouchedEdges: res.TouchedEdges}, *opts.Publish)
	}
	return res, nil
}

// runComponent converges one dirty component on the residual schedule over
// its own transport. Round structure mirrors the lockstep schedule — send
// frontier messages, step the transport, rebind factor→variable messages —
// so a component's message flow is indistinguishable on the wire from a
// scoped lockstep run that skipped the sub-tolerance traffic.
func (n *Network) runComponent(c *detectComponent, opts DetectOptions, seed int64) componentResult {
	kind := opts.Transport
	if kind == network.KindSharded {
		// A component is one small connected scope; the sharded substrate's
		// per-shard compute contract buys nothing inside it and does not fit
		// a frontier schedule. Component parallelism replaces it.
		kind = network.KindSim
	}
	tr, err := network.New(network.Config{Kind: kind, PSend: 1, Seed: seed})
	if err != nil {
		return componentResult{err: err}
	}
	defer tr.Close()
	for _, p := range c.peers {
		p := p
		err := tr.Register(p.id, func(e network.Envelope) {
			m, err := wire.Decode(e.Payload)
			if err != nil {
				return // malformed frame: drop, exactly like a real node
			}
			if rm, ok := m.(wire.Remote); ok {
				p.handleRemote(rm)
			}
		})
		if err != nil {
			return componentResult{err: err}
		}
	}

	var out componentResult
	resTol := opts.Tolerance
	active := c.varSet
	minFront, stagnant := len(active)+1, 0
	for round := 1; round <= opts.MaxRounds; round++ {
		for _, key := range c.vars {
			if !active[key] {
				continue
			}
			p := c.owner[key]
			vs := p.vars[key]
			prior := p.PriorFor(key.Mapping, key.Attr, opts.DefaultPrior)
			outs := vs.outgoingAll(prior)
			for fi, f := range vs.factors {
				msg := outs[fi]
				// The local replica copy holds exactly what every receiver
				// holds (reliable delivery), so it is the residual baseline:
				// a sub-tolerance move is neither applied nor sent, keeping
				// sender and receivers bit-consistent. Round one always
				// sends — the reset left unit messages everywhere.
				if round > 1 && factorgraph.Residual(f.replica.remote[f.pos], msg) <= resTol {
					continue
				}
				f.replica.setRemote(f.pos, msg)
				out.work.MessageUpdates++
				out.remote += emit(tr, p, f, msg, opts.Blocked)
			}
		}
		tr.Step()
		// Rebind factor→variable messages; a variable re-enters the frontier
		// only when one of its inputs moved beyond tolerance.
		next := make(map[varKey]bool)
		for _, key := range c.vars {
			vs := c.owner[key].vars[key]
			changed := false
			for _, f := range vs.factors {
				nm := f.replica.message(f.pos)
				if factorgraph.Residual(f.toVar, nm) > resTol {
					f.toVar = nm
					changed = true
					out.work.FactorUpdates++
				}
			}
			if changed {
				next[key] = true
			}
		}
		active = next
		out.rounds = round
		out.work.ComponentRounds = round
		if len(active) == 0 {
			out.converged = true
			break
		}
		// Loopy BP can oscillate instead of converging. On such components
		// the frontier stops shrinking: track its best (smallest) size and
		// bail out once it has plateaued for escalationPatience consecutive
		// rounds — the escalation below then reproduces the scratch
		// trajectory. Purely a function of the deterministic frontier
		// sequence, so the early exit is identical at any worker count.
		if len(active) < minFront {
			minFront, stagnant = len(active), 0
		} else if stagnant++; stagnant >= escalationPatience {
			break
		}
	}
	if !out.converged {
		// The component oscillates: belief propagation on its loops never
		// settled within tolerance, so there is no fixpoint for the residual
		// frontier to land on and its truncated trajectory would differ from
		// a from-scratch run's. Escalate: reset the component and replay the
		// synchronous lockstep sweeps, which reproduce the scratch
		// trajectory bit-for-bit (the incremental ≡ scratch differential
		// contract must hold on non-converging components too).
		n.lockstepComponent(c, tr, opts, &out)
	}
	out.stats = tr.Stats()
	if ec, ok := tr.(interface{ Err() error }); ok {
		if err := ec.Err(); err != nil {
			return componentResult{err: fmt.Errorf("core: component transport failed: %w", err)}
		}
	}
	return out
}

// lockstepComponent re-runs one component on the synchronous sweep schedule
// after a residual run failed to converge, accumulating the extra work into
// the component's counters. Identical to a lockstep incremental run
// restricted to this component — which is exactly what a scratch detection
// computes here, whatever the rest of the network does — so the incremental
// ≡ scratch differential contract holds on non-converging components too.
func (n *Network) lockstepComponent(c *detectComponent, tr network.Stepped, opts DetectOptions, out *componentResult) {
	scope := &detectScope{vars: c.varSet, evs: c.evs}
	out.work.Resets += n.resetScope(scope)
	r, _ := lockstepRounds(tr, [][]*Peer{c.peers}, scope, opts,
		func() map[graph.EdgeID]map[schema.Attribute]float64 { return c.posteriors(opts.DefaultPrior) }, nil)
	out.rounds, out.converged = r.rounds, r.converged
	out.remote += r.remote
	out.work.Add(r.work)
}

// posteriors collects the component's current posterior map — the
// convergence view of the escalated lockstep run. Component-local so worker
// pools never touch state (or lazy caches) outside their own component.
func (c *detectComponent) posteriors(defPrior float64) map[graph.EdgeID]map[schema.Attribute]float64 {
	out := make(map[graph.EdgeID]map[schema.Attribute]float64)
	for _, key := range c.vars {
		p := c.owner[key]
		mm, ok := out[key.Mapping]
		if !ok {
			mm = make(map[schema.Attribute]float64)
			out[key.Mapping] = mm
		}
		mm[key.Attr] = p.vars[key].posterior(p.PriorFor(key.Mapping, key.Attr, defPrior))
	}
	return out
}
