package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/query"
)

// LazyQuery is one unit of query workload driving the lazy schedule.
type LazyQuery struct {
	Origin graph.PeerID
	Query  query.Query
}

// LazyOptions configures the lazy message passing schedule of §4.3.2: the
// periodic schedule with no dedicated messages. Remote messages piggyback on
// query messages, so every query carries one period along its own paths and
// convergence follows the query load.
//
// A query walks the overlay breadth-first from its origin. On the way down
// it carries the µ-messages of every peer it reached to that peer's
// descendants in the walk, and its answers carry them back up to the
// ancestors: a µ-message crosses between two owners of a factor only when
// both were reached and one lies on the other's path from the origin. Nothing
// is buffered or relayed. A period resends every message, so the next query
// that connects two owners carries the current one.
type LazyOptions struct {
	// DefaultPrior as in DetectOptions. Defaults to 0.5.
	DefaultPrior float64
	// Theta gates query forwarding during the run (0 forwards everywhere,
	// letting the workload reach the whole network). It must lie in [0,1].
	Theta float64
	// MaxHops bounds each query's propagation. Defaults to the peer count;
	// negative is an error.
	MaxHops int
	// Tolerance declares a query quiet when its period moves no posterior by
	// this bound or more. Defaults to 1e-6.
	Tolerance float64
	// StableQueries is how many consecutive queries must be quiet before
	// declaring convergence: a single query touches only part of the
	// network, so one quiet query is weak evidence. Defaults to 10; negative
	// is an error.
	StableQueries int
}

// RunLazy processes the query workload in order, one period of the lockstep
// schedule per query, gated by the query's paths (§4.3.2). Evidence must have
// been discovered beforehand. The run stops early once StableQueries
// consecutive queries are quiet. Rounds counts the queries processed and
// RemoteMessages the µ-messages they carried; no dedicated message is sent.
func (n *Network) RunLazy(workload []LazyQuery, opts LazyOptions) (DetectResult, error) {
	if len(workload) == 0 {
		return DetectResult{}, fmt.Errorf("core: empty lazy workload")
	}
	w := &lazyWalk{n: n, tree: make(map[graph.PeerID]walkNode), arenas: make([][]byte, 1)}
	round, err := DetectOptions{
		DefaultPrior: opts.DefaultPrior,
		Tolerance:    opts.Tolerance,
		MaxRounds:    1,
		StableRounds: 1,
		Blocked:      w.blocked,
	}.withDefaults()
	if err != nil {
		return DetectResult{}, err
	}
	if !(0 <= opts.Theta && opts.Theta <= 1) {
		return DetectResult{}, fmt.Errorf("core: theta %v out of [0,1]", opts.Theta)
	}
	if opts.MaxHops < 0 || opts.StableQueries < 0 {
		return DetectResult{}, fmt.Errorf("core: negative MaxHops %d or StableQueries %d", opts.MaxHops, opts.StableQueries)
	}
	opts.MaxHops = cmp.Or(opts.MaxHops, n.NumPeers())
	opts.StableQueries = cmp.Or(opts.StableQueries, 10)

	tr, err := openTransport(network.Config{Kind: network.KindSim}, n.Peers())
	if err != nil {
		return DetectResult{}, err
	}
	defer tr.Close()

	var res DetectResult
	stable := 0
	for _, lq := range workload {
		op, ok := n.peers[lq.Origin]
		if !ok {
			return DetectResult{}, fmt.Errorf("core: unknown origin peer %q", lq.Origin)
		}
		if lq.Query.SchemaName != op.schema.Name() {
			return DetectResult{}, fmt.Errorf("core: query schema %q does not match origin %q",
				lq.Query.SchemaName, lq.Origin)
		}
		reached := w.walk(op, lq.Query, opts.Theta, opts.MaxHops, round.DefaultPrior)
		lr := lockstepRounds(tr, shardVars(tr, reached, nil), w.arenas, round, nil)
		res.Rounds++
		res.RemoteMessages += lr.remote
		res.Work.Add(lr.work)
		if !lr.converged {
			stable = 0
			continue
		}
		if stable++; stable >= opts.StableQueries {
			res.Converged = true
			break
		}
	}
	res.Posteriors = n.snapshotPosteriors(round.DefaultPrior)
	res.Transport = tr.Stats()
	return res, nil
}

// lazyWalk is a lazy run's scratch, reused from query to query: the peers
// the current query reached in breadth-first order, the query as rewritten
// into each one's schema, each one's place in the walk's tree, the sorted
// mappings of the peer being expanded and the periods' one-shard frame arena.
type lazyWalk struct {
	n       *Network
	reached []*Peer
	queries []query.Query
	tree    map[graph.PeerID]walkNode
	out     []graph.EdgeID
	arenas  [][]byte
}

// walkNode is a reached peer's BFS parent and its depth below the origin.
type walkNode struct {
	parent graph.PeerID
	depth  int
}

// walk floods q breadth-first from origin over the mappings that pass the
// gate and returns the peers it reached, origin first.
func (w *lazyWalk) walk(origin *Peer, q query.Query, theta float64, maxHops int, defPrior float64) []*Peer {
	clear(w.tree)
	w.tree[origin.id] = walkNode{}
	w.reached = append(w.reached[:0], origin)
	w.queries = append(w.queries[:0], q)
	for i := 0; i < len(w.reached); i++ {
		p, q := w.reached[i], w.queries[i]
		depth := w.tree[p.id].depth
		if depth >= maxHops {
			continue
		}
		w.out = w.out[:0]
		for eid := range p.out {
			w.out = append(w.out, eid)
		}
		slices.Sort(w.out)
		for _, eid := range w.out {
			e, _ := w.n.topo.Edge(eid)
			if _, seen := w.tree[e.To]; seen {
				continue
			}
			m := p.out[eid]
			// The walk keeps a gate of its own, apart from the routing
			// verdicts freezeAttr decides at publication: a run has no frozen
			// snapshot, so it reads the beliefs the earlier queries left.
			forward := true
			for _, a := range q.Attributes() {
				if _, mapped := m.Map(a); !mapped {
					forward = false
					break
				}
				if vs := p.vars[varKey{Mapping: eid, Attr: a}]; vs != nil && vs.posterior(p.PriorFor(eid, a, defPrior)) <= theta {
					forward = false
					break
				}
			}
			if !forward {
				continue
			}
			rewritten, dropped := q.Rewrite(m)
			if len(dropped) > 0 {
				continue
			}
			w.tree[e.To] = walkNode{parent: p.id, depth: depth + 1}
			w.reached = append(w.reached, w.n.peers[e.To])
			w.queries = append(w.queries, rewritten)
		}
	}
	return w.reached
}

// blocked severs every link but those between two peers the current query
// reached of which one is the other's ancestor in the walk: the query
// carries µ-messages down its path and its answers carry them back up.
func (w *lazyWalk) blocked(from, to graph.PeerID) bool {
	b, ok := w.tree[to]
	if !ok {
		return true
	}
	a := w.tree[from] // the sender was reached
	if a.depth < b.depth {
		from, to, a, b = to, from, b, a
	}
	for a.depth > b.depth {
		from = a.parent
		a = w.tree[from]
	}
	return from != to
}
