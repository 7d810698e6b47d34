// Package network provides the pluggable message transport substrate a PDMS
// runs on. Payloads are opaque bytes (see internal/wire for the typed frame
// codec); the Transport interface decouples the peer runtime from any
// particular substrate. Three implementations are provided:
//
//   - Simulator: the deterministic stepped message bus with seeded message
//     loss — the reference transport. Runs are reproducible bit-for-bit and
//     Fig 11's "probability of sending a message" is controlled exactly. A
//     shard count spreads 100k+ peer runs over all cores: peers are dealt
//     round-robin across the shards in registration order, a message is
//     queued in its receiver's shard and counted and loss-tested in its
//     sender's, and Step delivers every shard's inboxes on that shard's own
//     worker (at one shard, on the calling goroutine). The count never
//     changes a trace: the same deliveries, drops and stats at any count.
//
//   - Loopback: a one-shard Simulator with a real byte stream in the middle —
//     every frame crosses a localhost TCP socket (an in-memory net.Pipe
//     where sockets are unavailable) before the simulator delivers it,
//     proving the messages survive real serialization.
//
//   - Bus: a goroutine-per-peer asynchronous runtime built on channels. No
//     product code uses it any more — core's asynchronous schedule is the
//     deterministic residual engine — and it is exercised under the race
//     detector in tests only.
//
// Message loss is a deterministic per-(sender, receiver) hash stream shared
// by every transport (see dropper), so a lossy run is reproducible — and
// identical — no matter which substrate carries it.
package network

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// Simulator is a deterministic stepped transport. Messages sent during a
// step are delivered in the next step, mirroring one synchronous round of
// the periodic schedule (§4.3.1) per step. The zero value is unusable; use
// NewSimulator or NewSharded.
//
// Concurrency contract with more than one shard: a peer's handler runs only
// on its own shard's worker, and a peer's state must only be touched there —
// cross-shard effects go through messages. Send is safe to call
// concurrently as long as each sender peer is driven from one goroutine (the
// natural state when the driver parallelizes per-peer work along ShardOf);
// handlers may Send during a Step under the same rule.
type Simulator struct {
	handlers map[graph.PeerID]Handler
	shardOf  map[graph.PeerID]int // nil at one shard, where every peer is in shard 0
	// next[dst*k+src], for k shards, holds what shard src's peers sent to
	// shard dst's peers since the last Step: one slice per pair keeps Send
	// lock-free and the delivery order deterministic (source shard order,
	// then send order). spare is the last Step's drained inboxes, recycled
	// as the next queue, so a belief-propagation run reaches a steady state
	// where rounds allocate no queue space at all.
	next, spare [][]Envelope
	shards      []shard
	// one backs a one-shard simulator's shards, next and spare, so building
	// one allocates nothing beyond the struct and its handler map.
	one struct {
		shard [1]shard
		boxes [2][]Envelope
	}
}

// shard is one worker's loss stream and counters. A shard counts the sends
// of its own peers (Sent, loss) and the deliveries to them (Delivered,
// unknown receivers), so under the concurrency contract only its own worker
// writes it.
type shard struct {
	drop  *dropper // same seed in every shard → same per-pair streams
	stats Stats
}

// NewSimulator creates a one-shard simulator delivering each message with
// probability psend (1 = reliable); seed drives the deterministic loss model.
func NewSimulator(psend float64, seed int64) (*Simulator, error) {
	return NewSharded(1, psend, seed)
}

// NewSharded creates a simulator with the given shard count (0 picks
// GOMAXPROCS) and the shared deterministic loss model.
func NewSharded(shards int, psend float64, seed int64) (*Simulator, error) {
	if shards < 0 {
		return nil, fmt.Errorf("network: negative shard count %d", shards)
	}
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	s := &Simulator{handlers: make(map[graph.PeerID]Handler)}
	if shards == 1 {
		s.shards, s.next, s.spare = s.one.shard[:], s.one.boxes[:1], s.one.boxes[1:]
	} else {
		s.shardOf = make(map[graph.PeerID]int)
		s.shards = make([]shard, shards)
		boxes := make([][]Envelope, 2*shards*shards)
		s.next, s.spare = boxes[:shards*shards], boxes[shards*shards:]
	}
	for i := range s.shards {
		d, err := newDropper(psend, seed)
		if err != nil {
			return nil, err
		}
		s.shards[i].drop = d
	}
	return s, nil
}

// Shards returns the number of shards.
func (s *Simulator) Shards() int { return len(s.shards) }

// ShardOf returns the shard owning a registered peer (0 for unknown peers).
// Peers are assigned round-robin in registration order, so any deterministic
// registration sequence yields a deterministic partition.
func (s *Simulator) ShardOf(p graph.PeerID) int { return s.shardOf[p] }

// Register installs the handler for a peer and assigns it to a shard.
func (s *Simulator) Register(p graph.PeerID, h Handler) error {
	if _, dup := s.handlers[p]; dup {
		return fmt.Errorf("network: peer %q already registered", p)
	}
	if s.shardOf != nil {
		s.shardOf[p] = len(s.handlers) % len(s.shards)
	}
	s.handlers[p] = h
	return nil
}

// Send enqueues an envelope for delivery at the next Step. Loss is applied
// at send time, from the sender shard's stream.
func (s *Simulator) Send(e Envelope) {
	src, box := 0, 0
	if s.shardOf != nil {
		src = s.shardOf[e.From]
		box = s.shardOf[e.To]*len(s.shards) + src // unknown receivers land in shard 0 and drop at Step
	}
	if s.admit(src, e) {
		s.next[box] = append(s.next[box], e)
	}
}

// admit counts an envelope sent by a peer of shard src and decides its loss,
// reporting whether it survives.
func (s *Simulator) admit(src int, e Envelope) bool {
	sh := &s.shards[src]
	sh.stats.Sent++
	if sh.drop.drop(e.From, e.To) {
		sh.stats.Dropped++
		return false
	}
	return true
}

// Step delivers every currently queued message and returns the number
// delivered. Messages sent by handlers during the step are queued for the
// next one. Envelopes addressed to unregistered peers are dropped.
func (s *Simulator) Step() int {
	cur := s.next
	s.next = s.spare
	n, k := 0, len(s.shards)
	if k == 1 {
		n = s.deliver(0, cur)
	} else {
		before := s.Stats().Delivered
		var wg sync.WaitGroup
		for d := range k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.deliver(d, cur[d*k:(d+1)*k])
			}()
		}
		wg.Wait()
		n = s.Stats().Delivered - before
	}
	s.spare = cur
	return n
}

// deliver hands shard d's inboxes (one per source shard) to their handlers,
// counts the outcome on shard d and empties the inboxes for reuse; it
// returns the number delivered.
func (s *Simulator) deliver(d int, inboxes [][]Envelope) int {
	handlers, shardOf := s.handlers, s.shardOf
	delivered, unknown := 0, 0
	for src, in := range inboxes {
		for _, e := range in {
			h, ok := handlers[e.To]
			// A receiver registered after the send may belong to another
			// shard, whose worker alone may run its handler.
			if !ok || shardOf != nil && shardOf[e.To] != d {
				unknown++
				continue
			}
			delivered++
			h(e)
		}
		clear(in) // drop payload references before the array is recycled
		inboxes[src] = in[:0]
	}
	st := &s.shards[d].stats
	st.Delivered += delivered
	st.Dropped += unknown
	return delivered
}

// Pending returns the number of queued messages.
func (s *Simulator) Pending() int {
	n := 0
	for _, in := range s.next {
		n += len(in)
	}
	return n
}

// Drain steps until the queue is empty or maxSteps is reached, returning the
// number of steps taken.
func (s *Simulator) Drain(maxSteps int) int { return drain(s, maxSteps) }

// drain is Drain for any stepped transport.
func drain(s Stepped, maxSteps int) int {
	steps := 0
	for steps < maxSteps && s.Pending() > 0 {
		s.Step()
		steps++
	}
	return steps
}

// Stats returns a copy of the transport counters, summed over the shards.
func (s *Simulator) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		st.Sent += sh.stats.Sent
		st.Delivered += sh.stats.Delivered
		st.Dropped += sh.stats.Dropped
	}
	return st
}

// ResetStats zeroes the counters.
func (s *Simulator) ResetStats() {
	for i := range s.shards {
		s.shards[i].stats = Stats{}
	}
}

// Close implements Transport; the simulator holds no resources.
func (s *Simulator) Close() error { return nil }
