package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/factorgraph"
	"repro/internal/graph"
	"repro/internal/network"
)

// escalationPatience is how many consecutive rounds the residual frontier may
// fail to shrink below its best size before the component is declared
// oscillating and escalated to the lockstep sweeps. Converging components
// shed frontier variables steadily, so a long plateau is the signature of a
// frustrated loop; the value only trades wasted frontier rounds against a
// slightly earlier escalation, never correctness.
const escalationPatience = 24

// This file is the residual-scheduled, component-parallel engine of
// incremental re-detection and of the asynchronous schedule, which is the
// same engine seeded with every variable. The lockstep schedule in detect.go
// recomputes every in-scope message every round; after the first few rounds
// of a feedback refresh almost all of them land within tolerance of what the
// receiver already holds, so the sweeps mostly reconfirm converged state.
// Here each component instead keeps an active frontier: a variable re-sends a
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
// the lockstep sweeps when PSend < 1, and so does RunDetectionAsync.

// detectComponent is one connected component of the incremental closure:
// the unit the residual schedule converges — and parallelizes — over.
type detectComponent struct {
	// id is the canonical identity: the smallest member variable. It orders
	// the merge and seeds the component's transport.
	id varKey
	// vars lists the member variables, each with its owning peer, in
	// canonical key order.
	vars []runVar
	evs  map[string]bool
	// peers are the owning peers involved, sorted by ID — the registration
	// set of the component's private transport.
	peers []*Peer
}

// dirtyVars lists the variables feedback touched since the last incremental
// run: the seeds of the next one.
func (n *Network) dirtyVars() []varKey {
	seeds := make([]varKey, 0, len(n.fbDirty))
	for key := range n.fbDirty {
		seeds = append(seeds, key)
	}
	return seeds
}

// incrementalComponents computes the closure of the seed variables —
// alternate variable → adjacent factors → their variables until fixpoint —
// and partitions it into connected components of the bipartite factor graph.
// Messages never cross component boundaries, so re-running belief
// propagation inside the closure (from fresh unit messages) reproduces
// exactly what a full from-scratch detection would compute there, while
// everything outside keeps its converged state. Seeds are sorted and visited
// in canonical variable order, so the component list — and everything
// derived from it — is deterministic.
func (n *Network) incrementalComponents(seeds []varKey) (*detectScope, []*detectComponent) {
	scope := &detectScope{vars: make(map[varKey]bool), evs: make(map[string]bool)}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].less(seeds[j]) })

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
	comp := &detectComponent{evs: make(map[string]bool)}
	// The participating peers: every variable owner plus every replica
	// holder of a member factor (a peer can replicate a factor without
	// owning any in-scope variable — it still must receive frames).
	seen := make(map[graph.PeerID]*Peer)
	push := func(key varKey) {
		if scope.vars[key] {
			return
		}
		if p, ok := n.Owner(key.Mapping); ok {
			if vs, exists := p.vars[key]; exists {
				scope.vars[key] = true
				comp.vars = append(comp.vars, runVar{p: p, vs: vs})
				seen[p.id] = p
			}
		}
	}
	push(seed)
	// The member list is the BFS queue: push appends behind the cursor.
	for i := 0; i < len(comp.vars); i++ {
		for _, f := range comp.vars[i].vs.factors {
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
	sort.Slice(comp.vars, func(i, j int) bool { return comp.vars[i].vs.key.less(comp.vars[j].vs.key) })
	comp.id = comp.vars[0].vs.key
	comp.peers = make([]*Peer, 0, len(seen))
	for _, p := range seen {
		comp.peers = append(comp.peers, p)
	}
	sort.Slice(comp.peers, func(i, j int) bool { return comp.peers[i].id < comp.peers[j].id })
	return comp
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

// RunDetectionAsync runs the asynchronous schedule of §4.3 ("we do not
// actually require any kind of synchronization for the message passing
// schedule") in its informed form, residual belief propagation (Elidan,
// McGraw & Koller, UAI 2006): every connected component of the factor graph
// restarts from unit messages and converges on its own residual frontier,
// where a variable recomputes and resends only when one of its incoming
// messages moved beyond Tolerance. There is no global round: a component
// retires the moment its frontier empties, whatever the others do, and
// components run in parallel up to Workers. Rounds reports the longest
// component run. The result is deterministic — posteriors, message counts
// and work counters are bit-identical from run to run and at any worker
// count. Under loss (PSend < 1) or with a Trace hook the components fall back
// to the lockstep sweeps, as incremental runs do. Incremental is ignored:
// every component runs, and the feedback dirty set is left for the next
// incremental run.
func (n *Network) RunDetectionAsync(opts DetectOptions) (DetectResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return DetectResult{}, err
	}
	var seeds []varKey
	for _, p := range n.peers {
		for key := range p.vars {
			seeds = append(seeds, key)
		}
	}
	return n.redetect(seeds, opts)
}

// runResidualDetection converges the components of a redetect under
// reliable delivery, each on the residual schedule, serially or on a worker
// pool, and completes res. The merged result is bit-identical at any worker
// count.
func (n *Network) runResidualDetection(res DetectResult, scope *detectScope, comps []*detectComponent, opts DetectOptions) (DetectResult, error) {
	res.TouchedVars = len(scope.vars)

	outs := make([]componentResult, len(comps))
	run := func(i int) {
		outs[i] = n.runComponent(comps[i], opts)
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
	return res, nil
}

// runComponent converges one dirty component on the residual schedule over
// its own transport. Round structure mirrors the lockstep schedule — send
// frontier messages, step the transport, rebind factor→variable messages —
// so a component's message flow is indistinguishable on the wire from a
// scoped lockstep run that skipped the sub-tolerance traffic.
func (n *Network) runComponent(c *detectComponent, opts DetectOptions) componentResult {
	kind := opts.Transport
	if kind == network.KindSharded {
		// A component is one small connected scope; the sharded substrate's
		// per-shard compute contract buys nothing inside it and does not fit
		// a frontier schedule. Component parallelism replaces it.
		kind = network.KindSim
	}
	tr, err := openTransport(network.Config{Kind: kind, PSend: 1}, c.peers)
	if err != nil {
		return componentResult{err: err}
	}
	defer tr.Close()

	var out componentResult
	var arena []byte // the round's frames, reused once Step has returned
	resTol := opts.Tolerance
	// The frontier, indexed like c.vars: everything is active in round one.
	active, next := make([]bool, len(c.vars)), make([]bool, len(c.vars))
	for i := range active {
		active[i] = true
	}
	minFront, stagnant := len(active)+1, 0
	for round := 1; round <= opts.MaxRounds; round++ {
		for i, rv := range c.vars {
			if !active[i] {
				continue
			}
			vs := rv.vs
			outs := vs.outgoingAll(rv.p.PriorFor(vs.key.Mapping, vs.key.Attr, opts.DefaultPrior))
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
				out.remote += emit(tr, &arena, rv.p, f, msg, opts.Blocked)
			}
		}
		tr.Step()
		arena = arena[:0]
		// Rebind factor→variable messages; a variable re-enters the frontier
		// only when one of its inputs moved beyond tolerance.
		front := 0
		for i, rv := range c.vars {
			next[i] = false
			for _, f := range rv.vs.factors {
				nm := f.replica.message(f.pos)
				if factorgraph.Residual(f.toVar, nm) > resTol {
					f.toVar = nm
					next[i] = true
					out.work.FactorUpdates++
				}
			}
			if next[i] {
				front++
			}
		}
		active, next = next, active
		out.rounds = round
		out.work.ComponentRounds = round
		if front == 0 {
			out.converged = true
			break
		}
		// Loopy BP can oscillate instead of converging. On such components
		// the frontier stops shrinking: track its best (smallest) size and
		// bail out once it has plateaued for escalationPatience consecutive
		// rounds — the escalation below then reproduces the scratch
		// trajectory. Purely a function of the deterministic frontier
		// sequence, so the early exit is identical at any worker count.
		if front < minFront {
			minFront, stagnant = front, 0
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
	if err := transportErr(tr); err != nil {
		return componentResult{err: err}
	}
	return out
}

// lockstepComponent re-runs one component on the synchronous sweep schedule
// after a residual run failed to converge, accumulating the extra work into
// the component's counters. Identical to a lockstep incremental run
// restricted to this component — which is exactly what a scratch detection
// computes here, whatever the rest of the network does — so the incremental
// ≡ scratch differential contract holds on non-converging components too.
func (n *Network) lockstepComponent(c *detectComponent, tr network.Transport, opts DetectOptions, out *componentResult) {
	scope := &detectScope{vars: make(map[varKey]bool, len(c.vars)), evs: c.evs}
	for _, rv := range c.vars {
		scope.vars[rv.vs.key] = true
	}
	out.work.Resets += n.resetScope(scope)
	r := lockstepRounds(tr, [][]runVar{c.vars}, make([][]byte, 1), opts, nil)
	out.rounds, out.converged = r.rounds, r.converged
	out.remote += r.remote
	out.work.Add(r.work)
}
