package network

import (
	"fmt"

	"repro/internal/graph"
)

// dropper is the deterministic message-loss model shared by every transport.
//
// Each ordered (from, to) peer pair gets its own decision stream: the n-th
// message from a sender to a receiver is dropped iff
// hash(seed, from, to, n) maps below 1−psend. Because the decision depends
// only on the pair and its message ordinal — never on global send order or
// on a shared RNG cursor — every transport produces the *same* loss pattern
// for the same traffic: the Simulator at any shard count (each sender's
// stream lives in its shard) and the TCP loopback drop exactly the same
// messages, which is what lets golden traces stay byte-identical across
// transports even under loss (Fig 11).
//
// A dropper is not safe for concurrent use; the Simulator gives each shard
// its own dropper (same seed), which yields identical decisions as long as
// every (from, to) pair is confined to one shard.
type dropper struct {
	psend float64
	seed  uint64
	ctr   map[pairKey]uint64
}

type pairKey struct {
	from, to graph.PeerID
}

// newDropper validates psend ∈ (0, 1] and returns a loss model (nil when
// delivery is reliable — callers treat a nil dropper as psend = 1).
func newDropper(psend float64, seed int64) (*dropper, error) {
	if !(0 < psend && psend <= 1) {
		return nil, fmt.Errorf("network: psend %v out of (0,1]", psend)
	}
	if psend == 1 {
		return nil, nil
	}
	return &dropper{psend: psend, seed: uint64(seed), ctr: make(map[pairKey]uint64)}, nil
}

// drop decides the fate of the next message from → to and advances the
// pair's stream. It is small enough to inline, so reliable delivery costs a
// nil check per message.
func (d *dropper) drop(from, to graph.PeerID) bool { return d != nil && d.lose(from, to) }

func (d *dropper) lose(from, to graph.PeerID) bool {
	k := pairKey{from, to}
	n := d.ctr[k]
	d.ctr[k] = n + 1
	h := mix64(hashPair(from, to) ^ mix64(d.seed) ^ mix64(n*0x9e3779b97f4a7c15+1))
	// 53 uniform bits → [0, 1).
	return float64(h>>11)/(1<<53) >= d.psend
}

// hashPair is FNV-1a over "from\x00to" — stable across platforms and Go
// versions (loss patterns are part of the golden traces).
func hashPair(from, to graph.PeerID) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(from); i++ {
		h = (h ^ uint64(from[i])) * prime
	}
	h = (h ^ 0) * prime // separator so ("ab","c") ≠ ("a","bc")
	for i := 0; i < len(to); i++ {
		h = (h ^ uint64(to[i])) * prime
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
