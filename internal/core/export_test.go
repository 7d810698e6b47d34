package core

import (
	"repro/internal/factorgraph"
	"repro/internal/graph"
)

// Senders counts, per sending peer, the slots of id's factor replicas that
// hold a message from that peer rather than the unit message ResetMessages
// leaves there: which links carried a µ-message to id since the reset.
func (n *Network) Senders(id graph.PeerID) map[graph.PeerID]int {
	out := make(map[graph.PeerID]int)
	for _, r := range n.peers[id].evs {
		for i, msg := range r.remote {
			if o := r.ev.Owners[i]; o != id && msg != factorgraph.Unit() {
				out[o]++
			}
		}
	}
	return out
}
