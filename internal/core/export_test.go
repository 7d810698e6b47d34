package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"repro/internal/factorgraph"
	"repro/internal/graph"
	"repro/internal/schema"
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

// FmtDigest is RoutingSnapshot.Digest as it was first written, one
// fmt.Fprintf per line: the reference the buffered rendering must match
// byte for byte, so that no digest pinned anywhere moves.
func (s *RoutingSnapshot) FmtDigest() string {
	h := sha256.New()
	fmt.Fprintf(h, "opts|%x|%x|%d\n",
		math.Float64bits(s.opts.DefaultTheta), math.Float64bits(s.opts.DefaultPosterior), s.opts.MaxHops)
	tks := make([]schema.Attribute, 0, len(s.opts.Theta))
	for a := range s.opts.Theta {
		tks = append(tks, a)
	}
	sort.Slice(tks, func(i, j int) bool { return tks[i] < tks[j] })
	for _, a := range tks {
		fmt.Fprintf(h, "theta|%s|%x\n", a, math.Float64bits(s.opts.Theta[a]))
	}
	var attrs []schema.Attribute
	for _, id := range s.order {
		p := s.peers[id]
		fmt.Fprintf(h, "peer|%s|%s|%t\n", id, p.schema.Name(), p.store != nil)
		for i := range p.out {
			e := &p.out[i]
			fmt.Fprintf(h, "edge|%s|%s|%t\n", e.id, e.to, e.passable)
			attrs = attrs[:0]
			for a := range e.verdicts {
				attrs = append(attrs, a)
			}
			sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
			for _, a := range attrs {
				fmt.Fprintf(h, "v|%s|%d\n", a, e.verdicts[a])
			}
			mm, ok := s.posteriors[e.id]
			if !ok {
				continue
			}
			attrs = attrs[:0]
			for a := range mm {
				attrs = append(attrs, a)
			}
			sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
			for _, a := range attrs {
				fmt.Fprintf(h, "p|%s|%x\n", a, math.Float64bits(mm[a]))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
