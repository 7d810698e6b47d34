// Package network provides the pluggable message transport substrate a PDMS
// runs on. Payloads are opaque bytes (see internal/wire for the typed frame
// codec); the Transport interface decouples the peer runtime from any
// particular substrate. Four implementations are provided:
//
//   - Simulator: a deterministic, single-threaded, stepped message bus with
//     seeded message loss. The reference transport — runs are reproducible
//     bit-for-bit and Fig 11's "probability of sending a message" is
//     controlled exactly.
//
//   - ShardedSim: a stepped simulator that partitions peers across parallel
//     worker shards with per-shard loss streams, for 100k+ peer runs. It
//     produces the *same* traces as Simulator (same deliveries, same drops,
//     same stats) while delivering on all cores.
//
//   - Loopback: a stepped transport that pushes every frame through a real
//     localhost TCP socket (an in-memory net.Pipe where sockets are
//     unavailable), proving the messages survive real serialization. Also
//     trace-identical to Simulator.
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

	"repro/internal/graph"
)

// Simulator is a deterministic stepped transport. Messages sent during a
// step are delivered in the next step, mirroring one synchronous round of
// the periodic schedule (§4.3.1) per step. The zero value is unusable; use
// NewSimulator.
type Simulator struct {
	handlers map[graph.PeerID]Handler
	queue    []Envelope
	spare    []Envelope // drained batch recycled as the next queue's backing array
	drop     *dropper
	stats    Stats
}

// NewSimulator creates a simulator delivering each message with probability
// psend (1 = reliable); seed drives the deterministic loss model.
func NewSimulator(psend float64, seed int64) (*Simulator, error) {
	d, err := newDropper(psend, seed)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		handlers: make(map[graph.PeerID]Handler),
		drop:     d,
	}, nil
}

// Register installs the handler for a peer.
func (s *Simulator) Register(p graph.PeerID, h Handler) error {
	if _, dup := s.handlers[p]; dup {
		return fmt.Errorf("network: peer %q already registered", p)
	}
	s.handlers[p] = h
	return nil
}

// Send enqueues an envelope for delivery at the next Step. Loss is applied
// at send time.
func (s *Simulator) Send(e Envelope) {
	s.stats.Sent++
	if s.drop.drop(e.From, e.To) {
		s.stats.Dropped++
		return
	}
	s.queue = append(s.queue, e)
}

// Step delivers every currently queued message and returns the number
// delivered. Messages sent by handlers during the step are queued for the
// next one. Envelopes addressed to unregistered peers are dropped.
func (s *Simulator) Step() int {
	batch := s.queue
	// Sends during the step (from handlers) append to the recycled spare
	// array, never to the batch being drained. The two arrays alternate, so
	// a belief-propagation run reaches a steady state where rounds allocate
	// no queue space at all.
	s.queue = s.spare[:0]
	n := 0
	for _, e := range batch {
		h, ok := s.handlers[e.To]
		if !ok {
			s.stats.Dropped++
			continue
		}
		s.stats.Delivered++
		n++
		h(e)
	}
	clear(batch) // drop payload references before the array is recycled
	s.spare = batch[:0]
	return n
}

// Pending returns the number of queued messages.
func (s *Simulator) Pending() int { return len(s.queue) }

// Drain steps until the queue is empty or maxSteps is reached, returning the
// number of steps taken.
func (s *Simulator) Drain(maxSteps int) int {
	steps := 0
	for steps < maxSteps && len(s.queue) > 0 {
		s.Step()
		steps++
	}
	return steps
}

// Stats returns a copy of the transport counters.
func (s *Simulator) Stats() Stats { return s.stats }

// ResetStats zeroes the counters.
func (s *Simulator) ResetStats() { s.stats = Stats{} }

// Close implements Transport; the simulator holds no resources.
func (s *Simulator) Close() error { return nil }
