package core

import (
	"fmt"

	"repro/internal/factorgraph"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/wire"
)

// LazyQuery is one unit of query workload driving the lazy schedule.
type LazyQuery struct {
	Origin graph.PeerID
	Query  query.Query
}

// LazyOptions configures the lazy message passing schedule of §4.3.2:
// remote messages are never sent on their own; they piggyback on query
// messages travelling over mapping links, eliminating all dedicated
// communication overhead. Convergence speed becomes proportional to the
// query load.
//
// The participants of a feedback factor are not necessarily
// topology-neighbours (two mappings of a cycle may be owned by peers several
// hops apart), so piggybacked messages are relayed epidemically: every peer
// keeps the freshest µ it has seen for each factor position and hands the
// relevant ones to whichever factor participant a query next visits. Since
// a cycle's owners form a closed walk in the topology, every message
// eventually reaches every participant as long as queries keep flowing.
type LazyOptions struct {
	// DefaultPrior as in DetectOptions. Defaults to 0.5.
	DefaultPrior float64
	// Theta gates query forwarding during the run (0 forwards everywhere,
	// letting the workload reach the whole network). It must lie in [0,1].
	Theta float64
	// MaxHops bounds each query's propagation. Defaults to the peer count.
	MaxHops int
	// Tolerance declares convergence when a full query leaves every
	// posterior within this bound. Defaults to 1e-6.
	Tolerance float64
	// StableQueries is how many consecutive queries must stay within
	// Tolerance before declaring convergence: a single query touches only
	// part of the network, so one quiet query is weak evidence. Defaults
	// to 10.
	StableQueries int
}

// LazyResult reports a lazy run.
type LazyResult struct {
	// Posteriors as in DetectResult.
	Posteriors map[graph.EdgeID]map[schema.Attribute]float64
	// QueriesProcessed is the number of workload queries consumed.
	QueriesProcessed int
	// Converged reports whether posteriors stabilized before the workload
	// was exhausted.
	Converged bool
	// Piggybacked is the total number of remote messages carried on query
	// hops (zero dedicated messages were sent).
	Piggybacked int
}

// lazyEntry is one relayed µ message with a freshness stamp.
type lazyEntry struct {
	msg factorgraph.Msg
	seq int
}

type lazyKey struct {
	ev  string
	pos int
}

// lazyState is the transient per-run relay state.
type lazyState struct {
	n *Network
	// relay[peer] holds the freshest µ the peer has seen per position.
	relay map[graph.PeerID]map[lazyKey]lazyEntry
	// seq is the global freshness counter (each production is fresher than
	// every earlier one; a per-producer counter would work equally well).
	seq int
}

// RunLazy processes the query workload in order, piggybacking pending
// remote messages on every query hop (§4.3.2). Evidence must have been
// discovered beforehand. The run stops early once StableQueries consecutive
// queries leave every touched posterior within Tolerance.
func (n *Network) RunLazy(workload []LazyQuery, opts LazyOptions) (LazyResult, error) {
	if len(workload) == 0 {
		return LazyResult{}, fmt.Errorf("core: empty lazy workload")
	}
	if opts.DefaultPrior == 0 {
		opts.DefaultPrior = 0.5
	}
	if !(0 <= opts.DefaultPrior && opts.DefaultPrior <= 1) {
		return LazyResult{}, fmt.Errorf("core: default prior %v out of [0,1]", opts.DefaultPrior)
	}
	if opts.Tolerance == 0 {
		opts.Tolerance = 1e-6
	}
	if !(opts.Tolerance > 0) {
		return LazyResult{}, fmt.Errorf("core: tolerance %v is negative or NaN", opts.Tolerance)
	}
	if !(0 <= opts.Theta && opts.Theta <= 1) {
		return LazyResult{}, fmt.Errorf("core: theta %v out of [0,1]", opts.Theta)
	}
	if opts.MaxHops <= 0 {
		opts.MaxHops = n.NumPeers()
	}
	if opts.StableQueries <= 0 {
		opts.StableQueries = 10
	}

	st := &lazyState{n: n, relay: make(map[graph.PeerID]map[lazyKey]lazyEntry)}
	for _, p := range n.Peers() {
		st.relay[p.id] = make(map[lazyKey]lazyEntry)
	}
	// Initial production so the first queries have something to carry.
	for _, p := range n.Peers() {
		st.produce(p, opts.DefaultPrior)
	}

	res := LazyResult{}
	stable := 0
	for _, lq := range workload {
		op, ok := n.peers[lq.Origin]
		if !ok {
			return LazyResult{}, fmt.Errorf("core: unknown origin peer %q", lq.Origin)
		}
		if lq.Query.SchemaName != op.schema.Name() {
			return LazyResult{}, fmt.Errorf("core: query schema %q does not match origin %q",
				lq.Query.SchemaName, lq.Origin)
		}
		res.QueriesProcessed++
		maxDelta := st.propagate(lq, opts, &res)
		if maxDelta < opts.Tolerance {
			stable++
			if stable >= opts.StableQueries {
				res.Converged = true
				break
			}
		} else {
			stable = 0
		}
	}
	res.Posteriors = n.snapshotPosteriors(opts.DefaultPrior)
	return res, nil
}

// produce refreshes p's factor→variable messages and posteriors, then
// re-derives its outgoing µ messages into its relay buffer. Returns the
// largest posterior change.
func (st *lazyState) produce(p *Peer, defPrior float64) float64 {
	relay := st.relay[p.id]
	return p.produce(defPrior, func(f *factorRef, msg factorgraph.Msg) {
		st.seq++
		relay[lazyKey{ev: f.replica.ev.ID, pos: f.pos}] = lazyEntry{msg: msg, seq: st.seq}
	})
}

// propagate runs one query breadth-first through the network, relaying
// messages on every hop, and returns the largest posterior change observed.
func (st *lazyState) propagate(lq LazyQuery, opts LazyOptions, res *LazyResult) float64 {
	n := st.n
	maxDelta := 0.0
	type item struct {
		peer graph.PeerID
		q    query.Query
		hops int
	}
	visited := map[graph.PeerID]bool{lq.Origin: true}
	queue := []item{{peer: lq.Origin, q: lq.Query}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		p := n.peers[cur.peer]
		if cur.hops >= opts.MaxHops {
			continue
		}
		for _, eid := range p.Outgoing() {
			e, _ := n.topo.Edge(eid)
			if visited[e.To] {
				continue
			}
			m := p.out[eid]
			// Piggyback propagation keeps a gate of its own, apart from the
			// routing verdicts freezeAttr decides at publication: it reads
			// beliefs that move mid-query (every hop may re-produce the
			// receiver's posteriors), so there is no frozen verdict to follow.
			forward := true
			for _, a := range cur.q.Attributes() {
				if _, mapped := m.Map(a); !mapped {
					forward = false
					break
				}
				if vs := p.vars[varKey{Mapping: eid, Attr: a}]; vs != nil {
					pr := p.PriorFor(eid, a, opts.DefaultPrior)
					if vs.posterior(pr) <= opts.Theta {
						forward = false
						break
					}
				}
			}
			if !forward {
				continue
			}
			if d := st.hop(p.id, e.To, opts.DefaultPrior, res); d > maxDelta {
				maxDelta = d
			}
			rewritten, dropped := cur.q.Rewrite(m)
			if len(dropped) > 0 {
				continue
			}
			visited[e.To] = true
			queue = append(queue, item{peer: e.To, q: rewritten, hops: cur.hops + 1})
		}
	}
	return maxDelta
}

// hop transfers, from the sender's relay buffer to the receiver, every
// message whose factor the receiver participates in and that is fresher
// than what the receiver has. The batch crosses the hop as one wire
// Piggyback frame — marshalled at the sender, unmarshalled at the receiver —
// so a lazy run exercises exactly the bytes a real query message would
// carry. Applied messages update the receiver's factor replicas; if
// anything landed, the receiver re-produces its own messages.
func (st *lazyState) hop(from, to graph.PeerID, defPrior float64, res *LazyResult) float64 {
	dst := st.n.peers[to]
	var batch []wire.PiggybackEntry
	for key, entry := range st.relay[from] {
		// A peer participates in a factor exactly when it holds a replica.
		if _, ok := dst.evs[key.ev]; !ok {
			continue
		}
		have, ok := st.relay[to][key]
		if ok && have.seq >= entry.seq {
			continue
		}
		batch = append(batch, wire.PiggybackEntry{
			EvID: key.ev,
			Pos:  key.pos,
			Seq:  uint64(entry.seq),
			Msg:  entry.msg,
		})
	}
	if len(batch) == 0 {
		return 0
	}
	frame := wire.Encode(wire.Piggyback{Entries: batch})
	decoded, err := wire.Decode(frame)
	if err != nil {
		// Unreachable: we just encoded it. Dropping mirrors a real node's
		// reaction to a corrupt frame.
		return 0
	}
	pb := decoded.(wire.Piggyback)

	applied := false
	for _, e := range pb.Entries {
		key := lazyKey{ev: e.EvID, pos: e.Pos}
		st.relay[to][key] = lazyEntry{msg: factorgraph.Msg(e.Msg), seq: int(e.Seq)}
		res.Piggybacked++
		// Apply to the local replica unless this is the receiver's own
		// position (its own µ is maintained by produce).
		if r, ok := dst.evs[e.EvID]; ok {
			if e.Pos >= 0 && e.Pos < len(r.ev.Owners) && r.ev.Owners[e.Pos] != to {
				r.setRemote(e.Pos, factorgraph.Msg(e.Msg))
				applied = true
			}
		}
	}
	if !applied {
		return 0
	}
	return st.produce(dst, defPrior)
}
