package core

import (
	"fmt"
	"sync"

	"repro/internal/factorgraph"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
	"repro/internal/wire"
)

// DetectOptions configures a detection run (the periodic message passing
// schedule of §4.3.1: one round = every peer sends its remote messages once
// per period τ).
type DetectOptions struct {
	// DefaultPrior is the prior P(m = correct) for variables without
	// explicit or learned priors. Defaults to 0.5 (maximum entropy, §4.4).
	DefaultPrior float64
	// MaxRounds bounds the number of periods. Defaults to 100.
	MaxRounds int
	// Tolerance is the convergence threshold on the largest posterior
	// change across all peers between rounds. Defaults to 1e-6.
	Tolerance float64
	// StableRounds is how many consecutive rounds the tolerance must hold.
	// Defaults to 1 (5 under message loss).
	StableRounds int
	// PSend delivers each remote message with this probability (Fig 11).
	// 1 or 0 means reliable. The loss pattern depends only on Seed and the
	// traffic, never on the transport (see internal/network).
	PSend float64
	// Seed drives message loss.
	Seed int64
	// Transport selects the message substrate the µ-messages cross:
	// network.KindSim (the default one-shard deterministic simulator),
	// network.KindSharded (the same simulator with Shards parallel shards,
	// for very large networks) or network.KindTCP (loopback TCP — every
	// message travels as real bytes through a socket). All three produce
	// identical results and stats.
	Transport network.Kind
	// Shards is the shard count of the sharded transport (0 picks
	// GOMAXPROCS). With a sharded transport the per-peer compute of every
	// round — message production and refresh — also runs on the shard
	// workers, and any peer state outside a worker's own shard is reached
	// through messages only.
	Shards int
	// Incremental bounds the run to the factor-graph components touched by
	// feedback since the last detection (Network.IngestFeedback marks the
	// dirty variables): messages are reset and recomputed only inside those
	// components, everything else keeps its converged state, and the run
	// consumes the dirty set. Because belief-propagation messages never
	// cross component boundaries, the resulting posteriors equal a full
	// from-scratch re-detection over the whole network (the 50-seed
	// differential in internal/sim pins this within 1e-6). With no dirty
	// variables the run is a no-op that reports the current posteriors.
	//
	// Incremental runs under reliable delivery use the residual schedule
	// (see residual.go): each dirty component runs on its own transport and
	// only messages whose inputs moved beyond Tolerance are recomputed and
	// resent. Lossy and traced runs keep the synchronous lockstep sweeps.
	Incremental bool
	// Workers is the worker-pool size for component-parallel incremental
	// re-detection: dirty components are independent (messages never cross
	// component boundaries), so the residual schedule runs up to Workers of
	// them concurrently, each on its own reliable transport. Results are
	// merged in canonical component order, so any Workers value — including
	// 0/1, fully serial — produces bit-identical DetectResults.
	Workers int
	// Blocked, if non-nil, reports whether the directed link from one peer
	// to another is currently severed — a network partition. Blocked frames
	// are never handed to the transport, so the partition pattern is
	// identical on every message substrate (and under any worker count).
	// Detection-plane only: it gates µ-messages, not query routing or
	// feedback ingestion.
	Blocked func(from, to graph.PeerID) bool
	// Trace, if non-nil, receives after every round the posterior map of the
	// whole network, freshly allocated each call. A run builds that map every
	// round only when Trace is set; convergence does not read it. Calling
	// Network.PublishSnapshot on it from the hook gives concurrent query
	// servers the latest posteriors without ever blocking the BP rounds.
	Trace func(round int, posteriors map[graph.EdgeID]map[schema.Attribute]float64)
}

func (o DetectOptions) withDefaults() (DetectOptions, error) {
	if o.DefaultPrior == 0 {
		o.DefaultPrior = 0.5
	}
	if !(0 <= o.DefaultPrior && o.DefaultPrior <= 1) {
		return o, fmt.Errorf("core: default prior %v out of [0,1]", o.DefaultPrior)
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 100
	}
	if o.MaxRounds < 0 {
		return o, fmt.Errorf("core: negative MaxRounds")
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
	if !(o.Tolerance > 0) {
		return o, fmt.Errorf("core: Tolerance %v is negative or NaN", o.Tolerance)
	}
	if o.Workers < 0 || o.Shards < 0 {
		return o, fmt.Errorf("core: negative Workers %d or Shards %d", o.Workers, o.Shards)
	}
	if !(0 <= o.PSend && o.PSend <= 1) {
		return o, fmt.Errorf("core: PSend %v out of [0,1]", o.PSend)
	}
	if o.PSend == 0 {
		o.PSend = 1
	}
	if o.StableRounds < 0 {
		return o, fmt.Errorf("core: negative StableRounds")
	}
	if o.StableRounds == 0 {
		if o.PSend < 1 {
			o.StableRounds = 5
		} else {
			o.StableRounds = 1
		}
	}
	return o, nil
}

// DetectResult is the outcome of a detection run.
type DetectResult struct {
	// Posteriors maps mapping → attribute (at the mapping's source schema)
	// → P(correct). Pinned variables appear with probability 0.
	Posteriors map[graph.EdgeID]map[schema.Attribute]float64
	// Rounds is the number of periods executed.
	Rounds int
	// Converged reports whether the tolerance was met before MaxRounds.
	Converged bool
	// RemoteMessages is the number of remote messages handed to the
	// transport (the communication overhead of §4.3.1).
	RemoteMessages int
	// TouchedVars is the number of variables the run actually iterated: the
	// dirty-component scope of an incremental run, or every variable of a
	// full one.
	TouchedVars int
	// TouchedEdges names the mappings owning at least one touched variable
	// of an incremental run — the only edges whose posteriors can differ
	// from the previous detection, which is what lets PublishSnapshot
	// publish a delta without comparing the rest of the network. nil for a
	// full run (every edge is a candidate).
	TouchedEdges map[graph.EdgeID]bool
	// Transport carries the transport counters.
	Transport network.Stats
	// Work carries the deterministic work counters of the run.
	Work DetectWork
}

// DetectWork counts the work a detection run performed, deterministically:
// the counters depend only on the network state and the options, never on
// wall clock, goroutine interleaving or worker count — which is what lets
// perf acceptance gates assert schedule wins as exact integers instead of
// noisy wall-clock ratios.
type DetectWork struct {
	// MessageUpdates counts variable→factor messages recomputed and applied
	// (locally and, where the factor spans peers, sent). The synchronous
	// sweep schedule recomputes every in-scope message every round; the
	// residual schedule skips messages whose inputs stayed within tolerance,
	// so this counter is where the residual win is asserted.
	MessageUpdates int `json:"messageUpdates"`
	// FactorUpdates counts factor→variable message rebinds (µ_{f→m}
	// refreshes actually applied to a variable's adjacency).
	FactorUpdates int `json:"factorUpdates"`
	// Resets counts message slots restored to unit when an incremental run
	// reset its dirty scope.
	Resets int `json:"resets,omitempty"`
	// Components is the number of dirty factor-graph components an
	// incremental run re-detected (0 for a full run).
	Components int `json:"components,omitempty"`
	// ComponentRounds sums the rounds each component executed before
	// converging. The lockstep schedules run every component every round, so
	// there it equals Rounds × Components (or Rounds for a full run); the
	// residual schedule retires each component as soon as its top residual
	// falls under tolerance.
	ComponentRounds int `json:"componentRounds,omitempty"`
}

// add accumulates another run's counters (canonical merge of per-component
// results, and the sim engines' per-epoch aggregation).
func (w *DetectWork) Add(o DetectWork) {
	w.MessageUpdates += o.MessageUpdates
	w.FactorUpdates += o.FactorUpdates
	w.Resets += o.Resets
	w.Components += o.Components
	w.ComponentRounds += o.ComponentRounds
}

// Posterior returns the posterior for a mapping and attribute, or def if the
// variable was never part of any evidence.
func (r DetectResult) Posterior(m graph.EdgeID, a schema.Attribute, def float64) float64 {
	if mm, ok := r.Posteriors[m]; ok {
		if p, ok := mm[a]; ok {
			return p
		}
	}
	return def
}

// AttrPosterior reads one posterior from a posterior map, as
// DetectResult.Posterior does, for the maps a LazyResult carries.
func AttrPosterior(post map[graph.EdgeID]map[schema.Attribute]float64, m graph.EdgeID, a schema.Attribute, def float64) float64 {
	return DetectResult{Posteriors: post}.Posterior(m, a, def)
}

// RunDetection executes the periodic embedded message passing schedule on
// previously discovered evidence (DiscoverStructural or DiscoverByProbes):
// in every round each peer recomputes its variable→factor messages, marshals
// them through the wire codec and sends them to the other peers of each
// factor; the transport delivers the bytes; every receiving peer unmarshals
// and folds them in, then refreshes its factor→variable messages and
// posteriors. With reliable delivery this is exactly the synchronous
// sum-product schedule of the centralized engine — on any transport.
func (n *Network) RunDetection(opts DetectOptions) (DetectResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return DetectResult{}, err
	}
	if !opts.Incremental {
		return n.lockstep(opts, nil, DetectResult{})
	}
	seeds := n.dirtyVars()
	n.fbDirty = nil
	return n.redetect(seeds, opts)
}

// redetect resets the messages of the components closed around seeds to unit
// and converges them again. Under reliable delivery each component runs on
// the residual schedule (residual.go). Under loss the lockstep sweeps stay:
// they heal dropped frames by resending every round, which a residual skip
// would not. Trace wants per-round posteriors of the whole scope, which only
// the lockstep schedule produces.
func (n *Network) redetect(seeds []varKey, opts DetectOptions) (DetectResult, error) {
	var res DetectResult
	scope, comps := n.incrementalComponents(seeds)
	res.Work.Resets = n.resetScope(scope)
	res.Work.Components = len(comps)
	res.TouchedEdges = make(map[graph.EdgeID]bool, len(scope.vars))
	for key := range scope.vars {
		res.TouchedEdges[key.Mapping] = true
	}
	if opts.PSend >= 1 && opts.Trace == nil {
		return n.runResidualDetection(res, scope, comps, opts)
	}
	return n.lockstep(opts, scope, res)
}

// lockstep runs the synchronous sweep schedule over every variable of the
// network, or over scope's when it is non-nil, and completes res.
func (n *Network) lockstep(opts DetectOptions, scope *detectScope, res DetectResult) (DetectResult, error) {
	peers := n.Peers()
	tr, err := openTransport(network.Config{
		Kind:   opts.Transport,
		PSend:  opts.PSend,
		Seed:   opts.Seed,
		Shards: opts.Shards,
	}, peers)
	if err != nil {
		return DetectResult{}, err
	}
	defer tr.Close()

	shards := shardVars(tr, peers, scope)
	for _, vars := range shards {
		res.TouchedVars += len(vars)
	}
	if scope == nil || res.TouchedVars > 0 {
		var onRound func(round int)
		if opts.Trace != nil {
			onRound = func(round int) {
				opts.Trace(round, n.snapshotPosteriors(opts.DefaultPrior))
			}
		}
		lr := lockstepRounds(tr, shards, opts, onRound)
		res.Rounds, res.Converged, res.RemoteMessages = lr.rounds, lr.converged, lr.remote
		res.Work.Add(lr.work)
	}
	if scope != nil {
		// An incremental run converges on the dirty components alone, and the
		// lockstep schedule runs every component every round.
		res.Converged = res.Converged || res.TouchedVars == 0
		res.Work.ComponentRounds = res.Rounds * res.Work.Components
	}
	res.Posteriors = n.snapshotPosteriors(opts.DefaultPrior)
	res.Transport = tr.Stats()
	if err := transportErr(tr); err != nil {
		return DetectResult{}, err
	}
	return res, nil
}

// openTransport builds the transport of a run and registers on it, for each
// of the given peers, the handler that decodes wire.Remote frames in place
// and folds them into the peer's factor replicas.
func openTransport(cfg network.Config, peers []*Peer) (network.Stepped, error) {
	tr, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range peers {
		err := tr.Register(p.id, func(e network.Envelope) {
			evID, pos, msg, err := wire.DecodeRemote(e.Payload)
			if err != nil {
				return // malformed or not a µ-message: drop, exactly like a real node
			}
			p.handleRemote(evID, pos, msg)
		})
		if err != nil {
			tr.Close()
			return nil, err
		}
	}
	return tr, nil
}

// transportErr reports the failure of a transport backed by a real stream
// (TCP loopback), which cannot report failures per Send/Step; a broken socket
// would otherwise degrade into silently missing messages and a bogus
// "converged" result.
func transportErr(tr network.Transport) error {
	if ec, ok := tr.(interface{ Err() error }); ok {
		if err := ec.Err(); err != nil {
			return fmt.Errorf("core: transport failed: %w", err)
		}
	}
	return nil
}

// runVar is one variable of a run's work list, resolved once: the rounds
// iterate these and look nothing up.
type runVar struct {
	p  *Peer
	vs *varState
	// masked marks a variable whose key is also ⊥-pinned at p: a full run
	// reports it as 0 whatever its messages say, so its moves do not count
	// toward convergence.
	masked bool
}

// shardVars resolves the variables a run iterates — every variable of the
// given peers, or those of the scope of an incremental run — in canonical
// peer-then-key order, bucketed along the transport's shard partition so the
// per-variable compute of a round runs on the worker that owns the peer's
// messages. Other transports, and a one-shard simulator, get a single bucket.
func shardVars(tr network.Transport, peers []*Peer, scope *detectScope) [][]runVar {
	shardOf := func(graph.PeerID) int { return 0 }
	shards := make([][]runVar, 1)
	if sim, ok := tr.(*network.Simulator); ok && sim.Shards() > 1 {
		shardOf, shards = sim.ShardOf, make([][]runVar, sim.Shards())
	}
	for _, p := range peers {
		s := shardOf(p.id)
		for _, key := range p.sortedVarKeys() {
			if scope != nil && !scope.vars[key] {
				continue
			}
			shards[s] = append(shards[s], runVar{p: p, vs: p.vars[key], masked: scope == nil && p.pinned[key] > 0})
		}
	}
	return shards
}

// roundTally is what one pass over a bucket of variables adds up.
type roundTally struct {
	sent, updates int
	maxDelta      float64
}

// eachShard runs f over every bucket, with its shard index — inline for a
// single bucket, on one goroutine per shard otherwise — and folds the tallies.
// Peer state, and whatever else f indexes by shard, is touched only by the
// bucket's own worker; everything cross-shard rides the transport as bytes.
func eachShard(shards [][]runVar, f func(si int, vars []runVar) roundTally) roundTally {
	if len(shards) == 1 {
		return f(0, shards[0])
	}
	tallies := make([]roundTally, len(shards))
	var wg sync.WaitGroup
	for si, vars := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[si] = f(si, vars)
		}()
	}
	wg.Wait()
	var total roundTally
	for _, t := range tallies {
		total.sent += t.sent
		total.updates += t.updates
		if t.maxDelta > total.maxDelta {
			total.maxDelta = t.maxDelta
		}
	}
	return total
}

// lockstepRounds runs the synchronous sweep schedule over the given variables
// until the largest posterior move of a round stays under opts.Tolerance for
// opts.StableRounds consecutive rounds, or opts.MaxRounds is spent: every
// round sends every message, steps the transport and refreshes every
// variable. onRound, if non-nil, runs after each round's refresh. Returns the
// rounds' contribution: rounds, convergence, remote messages, work.
//
// Each shard appends its round's frames into its own arena, which the Step
// delivers from and which is reused once Step has returned.
func lockstepRounds(tr network.Stepped, shards [][]runVar, opts DetectOptions, onRound func(round int)) componentResult {
	var out componentResult
	arenas := make([][]byte, len(shards))
	stable := 0
	for round := 1; round <= opts.MaxRounds; round++ {
		remote, updates := sendRound(tr, shards, arenas, opts.DefaultPrior, opts.Blocked)
		out.remote += remote
		out.work.MessageUpdates += updates
		tr.Step()
		for i := range arenas {
			arenas[i] = arenas[i][:0]
		}
		updates, maxDelta := refreshRound(shards, opts.DefaultPrior)
		out.work.FactorUpdates += updates
		out.rounds = round
		out.work.ComponentRounds = round

		if onRound != nil {
			onRound(round)
		}
		if maxDelta < opts.Tolerance {
			stable++
			if stable >= opts.StableRounds {
				out.converged = true
				break
			}
		} else {
			stable = 0
		}
	}
	return out
}

// emit puts one variable→factor µ-message on the transport: a single
// wire.Remote frame, appended to arena and sent to every other peer
// replicating the factor whose link from p is not severed by the blocked
// predicate (a partition; nil severs nothing). Every destination shares the
// frame's bytes, so the arena must not be reused before the transport's next
// Step has returned. A self-promoting adversary lies here and only here — the
// frame claims absolute certainty that its mapping is correct while its
// local replica copy stays honest; the receiving side's products stay finite
// (Normalized leaves zero-sum messages alone), so the lie saturates beliefs
// without poisoning the arithmetic. Returns the number of frames handed to
// the transport.
func emit(tr network.Transport, arena *[]byte, p *Peer, f *factorRef, msg factorgraph.Msg, blocked func(from, to graph.PeerID) bool) int {
	dests := f.destinations(p.id)
	if len(dests) == 0 {
		return 0
	}
	if p.selfPromote {
		msg = factorgraph.Msg{1, 0}
	}
	start := len(*arena)
	*arena = wire.AppendRemote(*arena, wire.Remote{EvID: f.replica.ev.ID, Pos: f.pos, Msg: msg})
	frame := (*arena)[start:]
	sent := 0
	for _, dest := range dests {
		if blocked != nil && blocked(p.id, dest) {
			continue
		}
		tr.Send(network.Envelope{From: p.id, To: dest, Payload: frame})
		sent++
	}
	return sent
}

// sendRound performs phase 1 of a period for every variable: compute, marshal
// and emit the variable→factor messages. Messages to factors replicated on
// the same peer are applied locally (they never touch the network);
// messages to other peers are sent once per (factor, destination peer). A
// non-nil blocked predicate severs links (partition). Shard si's frames go
// into arenas[si]. Returns the number of remote messages handed to the
// transport and the number of variable→factor messages applied.
func sendRound(tr network.Transport, shards [][]runVar, arenas [][]byte, defPrior float64, blocked func(from, to graph.PeerID) bool) (int, int) {
	total := eachShard(shards, func(si int, vars []runVar) (t roundTally) {
		for _, rv := range vars {
			vs := rv.vs
			outs := vs.outgoingAll(rv.p.PriorFor(vs.key.Mapping, vs.key.Attr, defPrior))
			for fi, f := range vs.factors {
				// Local copy: my own replica records my message so my
				// other variables in this factor see it.
				f.replica.setRemote(f.pos, outs[fi])
				t.updates++
				t.sent += emit(tr, &arenas[si], rv.p, f, outs[fi], blocked)
			}
		}
		return t
	})
	return total.sent, total.updates
}

// refreshRound performs phase 2: every variable recomputes its
// factor→variable messages from the replicas' remote messages. Returns the
// number of factor→variable rebinds applied and the largest posterior move —
// the round's convergence measure.
func refreshRound(shards [][]runVar, defPrior float64) (int, float64) {
	total := eachShard(shards, func(_ int, vars []runVar) (t roundTally) {
		for _, rv := range vars {
			vs := rv.vs
			d := vs.refresh(rv.p.PriorFor(vs.key.Mapping, vs.key.Attr, defPrior))
			if d > t.maxDelta && !rv.masked {
				t.maxDelta = d
			}
			t.updates += len(vs.factors)
		}
		return t
	})
	return total.updates, total.maxDelta
}

// detectScope is the variable/factor closure of an incremental run: the
// connected components (of the bipartite factor graph) containing at least
// one feedback-dirtied variable.
type detectScope struct {
	vars map[varKey]bool
	evs  map[string]bool
}

// resetScope restores unit messages inside the scope only — the incremental
// counterpart of ResetMessages. Returns the number of message slots reset.
func (n *Network) resetScope(scope *detectScope) int {
	resets := 0
	for _, p := range n.peers {
		for id, r := range p.evs {
			if !scope.evs[id] {
				continue
			}
			for i := range r.remote {
				r.remote[i] = factorgraph.Unit()
			}
			r.dirty = true
			resets += len(r.remote)
		}
		for key, vs := range p.vars {
			if !scope.vars[key] {
				continue
			}
			for _, f := range vs.factors {
				f.toVar = factorgraph.Unit()
			}
			resets += len(vs.factors)
		}
	}
	return resets
}

// snapshotPosteriors collects the current posterior of every variable in
// the network, including pins.
func (n *Network) snapshotPosteriors(defPrior float64) map[graph.EdgeID]map[schema.Attribute]float64 {
	out := make(map[graph.EdgeID]map[schema.Attribute]float64)
	put := func(m graph.EdgeID, a schema.Attribute, v float64) {
		mm, ok := out[m]
		if !ok {
			mm = make(map[schema.Attribute]float64)
			out[m] = mm
		}
		mm[a] = v
	}
	for _, p := range n.Peers() {
		for _, key := range p.sortedVarKeys() {
			vs := p.vars[key]
			put(key.Mapping, key.Attr, vs.posterior(p.PriorFor(key.Mapping, key.Attr, defPrior)))
		}
		for key := range p.pinned {
			put(key.Mapping, key.Attr, 0)
		}
	}
	return out
}

// CommitPriors performs the prior-belief update of §4.4 on every peer: the
// current posterior of each variable is recorded as a new evidence sample,
// and the prior becomes the running mean of all samples (seeded with the
// initial prior). Returns the number of variables updated.
func (n *Network) CommitPriors(result DetectResult, defPrior float64) int {
	if defPrior == 0 {
		defPrior = 0.5
	}
	// Collect the exact samples the pass will append — including the seed
	// sample a freshly tracked variable gets — then hand the batch to
	// ApplyPriorSamples, which journals it as one record before applying.
	// Journaling the resolved samples (rather than the trigger) keeps
	// replay exact even when later churn changes which variables a re-run
	// of the pass would see.
	var entries []PriorSample
	updated := 0
	for _, p := range n.Peers() {
		for _, key := range p.sortedVarKeys() {
			post, ok := result.Posteriors[key.Mapping][key.Attr]
			if !ok {
				continue
			}
			if _, seeded := p.samples[key]; !seeded {
				entries = append(entries, PriorSample{
					Peer:    p.id,
					Mapping: key.Mapping,
					Attr:    key.Attr,
					Sample:  p.PriorFor(key.Mapping, key.Attr, defPrior),
				})
			}
			entries = append(entries, PriorSample{
				Peer:    p.id,
				Mapping: key.Mapping,
				Attr:    key.Attr,
				Sample:  post,
			})
			updated++
		}
	}
	if updated == 0 {
		return 0
	}
	n.ApplyPriorSamples(entries)
	return updated
}
