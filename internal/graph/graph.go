// Package graph models the topology of a PDMS: a multigraph whose vertices
// are peers and whose edges are pairwise schema mappings. It provides the
// structural analyses the paper relies on — enumeration of mapping cycles
// (§3.2.1) and of parallel mapping paths (§3.3) up to a bounded length — as
// well as the random topology generators and statistics used to argue that
// semantic overlay networks are scale-free and highly clustered.
//
// The package is purely structural: it knows edge identities and directions,
// never mapping contents. The feedback layer combines the cycles found here
// with the schema layer to produce probabilistic evidence.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// PeerID identifies a peer (a database) in the PDMS.
type PeerID string

// EdgeID identifies a mapping edge. Edge IDs double as the names of the
// binary correctness variables in the factor graph.
type EdgeID string

// Edge is a mapping edge from one peer to another. In an undirected graph
// the From/To orientation is the declaration order; traversal may use the
// edge in either direction.
type Edge struct {
	ID   EdgeID
	From PeerID
	To   PeerID
}

// Graph is a PDMS topology. The zero value is unusable; create graphs with
// NewDirected or NewUndirected.
type Graph struct {
	directed bool
	peers    []PeerID
	peerSet  map[PeerID]bool
	edges    map[EdgeID]edgeRec
	edgeIDs  []EdgeID
	out      map[PeerID][]EdgeID // edges leaving the peer (or incident, if undirected)
	in       map[PeerID][]EdgeID // edges entering the peer (directed only)
	nextSeq  uint64

	// idx is the compiled topology the enumerators run on (index.go): built
	// on first use, dropped by every mutation. Concurrent enumerations may
	// each build it; the builds are identical and any one of them is kept.
	idx atomic.Pointer[index]
}

// edgeRec is a stored edge with its insertion sequence number, which orders
// edges gathered from different adjacency lists the way edgeIDs orders them.
type edgeRec struct {
	Edge
	seq uint64
}

// NewDirected creates an empty directed PDMS graph (§3.3).
func NewDirected() *Graph { return newGraph(true) }

// NewUndirected creates an empty undirected PDMS graph (§3.2).
func NewUndirected() *Graph { return newGraph(false) }

func newGraph(directed bool) *Graph {
	return &Graph{
		directed: directed,
		peerSet:  make(map[PeerID]bool),
		edges:    make(map[EdgeID]edgeRec),
		out:      make(map[PeerID][]EdgeID),
		in:       make(map[PeerID][]EdgeID),
	}
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// AddPeer adds a peer. Adding an existing peer is a no-op.
func (g *Graph) AddPeer(p PeerID) {
	if g.peerSet[p] {
		return
	}
	g.peerSet[p] = true
	g.peers = append(g.peers, p)
	g.idx.Store(nil)
}

// HasPeer reports whether p is in the graph.
func (g *Graph) HasPeer(p PeerID) bool { return g.peerSet[p] }

// CheckEdge reports the error AddEdge would return for the edge, without
// adding it: an empty ID, a self-loop (a mapping from a schema to itself
// carries no integration information) or a duplicate edge ID.
func (g *Graph) CheckEdge(id EdgeID, from, to PeerID) error {
	if id == "" {
		return fmt.Errorf("graph: empty edge id")
	}
	if from == to {
		return fmt.Errorf("graph: edge %q is a self-loop on %q", id, from)
	}
	if _, dup := g.edges[id]; dup {
		return fmt.Errorf("graph: duplicate edge id %q", id)
	}
	return nil
}

// AddEdge adds a mapping edge. Both endpoints are added implicitly. It
// returns CheckEdge's error and adds nothing when the edge is invalid.
func (g *Graph) AddEdge(id EdgeID, from, to PeerID) error {
	if err := g.CheckEdge(id, from, to); err != nil {
		return err
	}
	g.AddPeer(from)
	g.AddPeer(to)
	g.edges[id] = edgeRec{Edge: Edge{ID: id, From: from, To: to}, seq: g.nextSeq}
	g.nextSeq++
	g.edgeIDs = append(g.edgeIDs, id)
	g.out[from] = append(g.out[from], id)
	if g.directed {
		g.in[to] = append(g.in[to], id)
	} else {
		g.out[to] = append(g.out[to], id)
	}
	g.idx.Store(nil)
	return nil
}

// MustAddEdge is like AddEdge but panics on error.
func (g *Graph) MustAddEdge(id EdgeID, from, to PeerID) {
	if err := g.AddEdge(id, from, to); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes a mapping edge, e.g. when a peer drops a mapping
// (network churn, §4.4). Removing an unknown edge is a no-op.
func (g *Graph) RemoveEdge(id EdgeID) {
	e, ok := g.edges[id]
	if !ok {
		return
	}
	delete(g.edges, id)
	g.edgeIDs = removeID(g.edgeIDs, id)
	g.out[e.From] = removeID(g.out[e.From], id)
	if g.directed {
		g.in[e.To] = removeID(g.in[e.To], id)
	} else {
		g.out[e.To] = removeID(g.out[e.To], id)
	}
	g.idx.Store(nil)
}

// RemovePeer deletes a peer and every edge incident to it (a peer leaving
// the network, §4.4 churn). Removing an unknown peer is a no-op. It returns
// the IDs of the edges that were removed with the peer.
func (g *Graph) RemovePeer(p PeerID) []EdgeID {
	if !g.peerSet[p] {
		return nil
	}
	// out[p] and in[p] are each in insertion order and (no self-loops) share
	// no edge: merging them by sequence number lists the incident edges in
	// the order a scan of edgeIDs would.
	outs, ins := g.out[p], g.in[p]
	var incident []EdgeID
	for len(outs) > 0 && len(ins) > 0 {
		if g.edges[outs[0]].seq < g.edges[ins[0]].seq {
			incident, outs = append(incident, outs[0]), outs[1:]
		} else {
			incident, ins = append(incident, ins[0]), ins[1:]
		}
	}
	incident = append(append(incident, outs...), ins...)
	for _, id := range incident {
		g.RemoveEdge(id)
	}
	delete(g.peerSet, p)
	delete(g.out, p)
	delete(g.in, p)
	for i, q := range g.peers {
		if q == p {
			g.peers = append(g.peers[:i:i], g.peers[i+1:]...)
			break
		}
	}
	g.idx.Store(nil)
	return incident
}

func removeID(ids []EdgeID, id EdgeID) []EdgeID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i:i], ids[i+1:]...)
		}
	}
	return ids
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) (Edge, bool) {
	e, ok := g.edges[id]
	return e.Edge, ok
}

// Peers returns all peers in insertion order (copy).
func (g *Graph) Peers() []PeerID {
	out := make([]PeerID, len(g.peers))
	copy(out, g.peers)
	return out
}

// Edges returns all edges in insertion order (copy).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edgeIDs))
	for _, id := range g.edgeIDs {
		out = append(out, g.edges[id].Edge)
	}
	return out
}

// NumPeers returns the number of peers.
func (g *Graph) NumPeers() int { return len(g.peers) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edgeIDs) }

// Outgoing returns the IDs of edges usable from peer p: out-edges in a
// directed graph, incident edges in an undirected graph (copy).
func (g *Graph) Outgoing(p PeerID) []EdgeID {
	src := g.out[p]
	out := make([]EdgeID, len(src))
	copy(out, src)
	return out
}

// Step is one hop of a walk: an edge and the direction it is traversed in.
// Forward means From→To. In directed graphs Forward is always true.
type Step struct {
	Edge    EdgeID
	Forward bool
}

// From returns the peer the step leaves, given the graph.
func (s Step) From(g *Graph) PeerID {
	e := g.edges[s.Edge]
	if s.Forward {
		return e.From
	}
	return e.To
}

// To returns the peer the step arrives at, given the graph.
func (s Step) To(g *Graph) PeerID {
	e := g.edges[s.Edge]
	if s.Forward {
		return e.To
	}
	return e.From
}

// Cycle is a simple closed walk: no repeated edges, no repeated peers other
// than the start. Steps[0].From(g) == Steps[len-1].To(g).
type Cycle struct {
	Steps []Step
}

// Edges returns the cycle's edge IDs in traversal order.
func (c Cycle) Edges() []EdgeID {
	out := make([]EdgeID, len(c.Steps))
	for i, s := range c.Steps {
		out[i] = s.Edge
	}
	return out
}

// Len returns the number of mappings in the cycle.
func (c Cycle) Len() int { return len(c.Steps) }

// Signature returns a canonical string identifying the cycle independently
// of rotation and (for undirected graphs) orientation: the sorted edge IDs.
// For simple cycles the edge set determines the cycle.
func (c Cycle) Signature() string {
	ids := make([]string, len(c.Steps))
	for i, s := range c.Steps {
		ids[i] = string(s.Edge)
	}
	sort.Strings(ids)
	return "cyc:" + strings.Join(ids, "|")
}

// String renders the cycle as "m12→m23→m31".
func (c Cycle) String() string {
	parts := make([]string, len(c.Steps))
	for i, s := range c.Steps {
		arrow := "→"
		if !s.Forward {
			arrow = "←"
		}
		parts[i] = arrow + string(s.Edge)
	}
	return strings.Join(parts, "")
}

// Cycles enumerates all simple cycles with at most maxLen edges (and at
// least 2). Each cycle is reported exactly once, regardless of rotation or
// orientation: it starts at its peer of least ID and, on an undirected graph,
// runs in the direction whose first edge has the lesser ID. The list is
// ordered by start peer, then by the sequence of edge IDs. That order is a
// contract, not an accident: it fixes the order evidence is installed in and
// therefore every digest and golden trace downstream.
func (g *Graph) Cycles(maxLen int) []Cycle {
	if maxLen < 2 {
		return nil
	}
	return g.index().cycles(maxLen)
}

// CyclesThrough returns the cycles of Cycles(maxLen) that use at least one of
// the changed edges, in the same form and the same order, at the cost of a
// bounded search around those edges instead of one over the whole graph.
// Unknown edge IDs are ignored.
func (g *Graph) CyclesThrough(maxLen int, changed ...EdgeID) []Cycle {
	if maxLen < 2 || len(changed) == 0 {
		return nil
	}
	return g.index().cyclesThrough(maxLen, changed)
}

// ParallelPair is a pair of distinct directed mapping paths sharing the same
// source and destination peer, internally vertex-disjoint (§3.3). Comparing
// a query forwarded through both paths yields feedback on the union of their
// mappings.
type ParallelPair struct {
	Source, Dest PeerID
	A, B         []Step
}

// Edges returns the union of the two paths' edge IDs, A first then B.
func (p ParallelPair) Edges() []EdgeID {
	out := make([]EdgeID, 0, len(p.A)+len(p.B))
	for _, s := range p.A {
		out = append(out, s.Edge)
	}
	for _, s := range p.B {
		out = append(out, s.Edge)
	}
	return out
}

// Signature returns a canonical identifier independent of the A/B order.
func (p ParallelPair) Signature() string {
	sideSig := func(steps []Step) string {
		ids := make([]string, len(steps))
		for i, s := range steps {
			ids[i] = string(s.Edge)
		}
		return strings.Join(ids, "|") // order matters within a path
	}
	a, b := sideSig(p.A), sideSig(p.B)
	if a > b {
		a, b = b, a
	}
	return "par:" + string(p.Source) + ">" + string(p.Dest) + ":" + a + "||" + b
}

// String renders the pair as "p2⇒p4: m24 ‖ m23→m34".
func (p ParallelPair) String() string {
	side := func(steps []Step) string {
		ids := make([]string, len(steps))
		for i, s := range steps {
			ids[i] = string(s.Edge)
		}
		return strings.Join(ids, "→")
	}
	return fmt.Sprintf("%s⇒%s: %s ‖ %s", p.Source, p.Dest, side(p.A), side(p.B))
}

// ParallelPaths enumerates pairs of distinct simple directed paths with the
// same endpoints, each of at most maxLen edges, sharing no edges and no
// internal peers. Pairs where both paths have length 1 but identical edges
// are excluded by construction; pairs consisting of two parallel single
// edges (a multi-edge) are legitimate parallel paths and are reported.
// Only meaningful on directed graphs; on undirected graphs it returns nil
// (an undirected parallel pair is already a cycle and is reported by Cycles).
// Pairs are ordered by source peer, then destination peer, then by the two
// paths' positions in a depth-first walk from the source that takes edges in
// ID order; A is the path met first. Like the order of Cycles, this is a
// contract.
func (g *Graph) ParallelPaths(maxLen int) []ParallelPair {
	if !g.directed || maxLen < 1 {
		return nil
	}
	return g.index().parallelPaths(maxLen, nil)
}

// ParallelPathsThrough returns the pairs of ParallelPaths(maxLen) in which
// at least one path uses a changed edge, in the same order. Only peers that
// reach a changed edge within maxLen-1 hops are searched as sources. Unknown
// edge IDs are ignored.
func (g *Graph) ParallelPathsThrough(maxLen int, changed ...EdgeID) []ParallelPair {
	if !g.directed || maxLen < 1 || len(changed) == 0 {
		return nil
	}
	return g.index().parallelPaths(maxLen, changed)
}
