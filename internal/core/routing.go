package core

import (
	"repro/internal/graph"
	"repro/internal/query"
)

// This file holds the result types of θ-gated query forwarding (§2): a query
// is forwarded through a mapping only if every attribute it references is
// preserved with probability above the attribute's semantic threshold. The
// decision itself lives in snapshot.go — freezeAttr decides each verdict at
// publication and RoutingSnapshot.RouteQuery is the only walk.

// Visit records the query's arrival at one peer.
type Visit struct {
	Peer graph.PeerID
	// Query is the query as rewritten for this peer's schema.
	Query query.Query
	// Via is the chain of mappings from the origin.
	Via []graph.EdgeID
}

// RouteResult is the outcome of a routed query.
type RouteResult struct {
	Visits []Visit
	// Blocked counts mapping hops rejected by the θ gate.
	Blocked int
	// DroppedAttr counts hops rejected because a mapping lacked a
	// correspondence for a query attribute (the ⊥ rule of §2: the query is
	// forwarded only if all attributes are preserved).
	DroppedAttr int
	// Sig is a bloom signature of every mapping edge the walk
	// examined — crossed, blocked, or skipped because the destination was
	// already reached. The serve layer intersects it with snapshot deltas to
	// decide whether a cached answer survives a publication.
	Sig Sig
}

// Reached returns the IDs of the peers the query reached, in visit order.
func (r RouteResult) Reached() []graph.PeerID {
	out := make([]graph.PeerID, len(r.Visits))
	for i, v := range r.Visits {
		out[i] = v.Peer
	}
	return out
}
