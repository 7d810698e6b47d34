package network

import (
	"fmt"

	"repro/internal/graph"
)

// Envelope is one message in flight. The payload is opaque bytes — peers
// marshal through internal/wire, so a message that crosses any Transport is
// exactly the frame that would cross a real network.
//
// A transport may hand a payload's bytes to the handler without
// copying them, and they stay valid only until the Step that delivers them
// returns: a sender may reuse its frame buffer from then on (detection
// appends a round's frames into one arena and truncates it after each Step).
type Envelope struct {
	From, To graph.PeerID
	Payload  []byte
}

// Handler consumes a delivered envelope. Handlers may send further messages.
// A handler must not retain e.Payload, or anything aliasing it, past its
// return: copy what it keeps.
type Handler func(Envelope)

// Stats counts transport activity. All transports account identically:
// Sent counts every envelope handed to the transport, Dropped counts
// simulated loss (decided at send time by the shared deterministic loss
// model) plus envelopes addressed to unregistered peers, and Delivered
// counts envelopes handed to a handler. At quiescence
// Sent == Delivered + Dropped.
type Stats struct {
	Sent      int // messages handed to the transport
	Delivered int // messages delivered to a handler
	Dropped   int // messages lost (1 − PSend) or addressed to no one
}

// Transport is the message substrate a PDMS runs on: peers register a
// handler and exchange opaque byte envelopes in rounds. Messages sent during
// a Step are delivered in the next one, mirroring one synchronous round of
// the periodic schedule (§4.3.1) per step. Implementations differ only in
// locality (in-process queues vs. a real byte stream), never in semantics.
type Transport interface {
	// Register installs the handler for a peer. Registering the same peer
	// twice is an error.
	Register(p graph.PeerID, h Handler) error
	// Send enqueues an envelope for delivery at the next Step. Loss is
	// applied at send time.
	Send(e Envelope)
	// Step delivers every currently queued message and returns the number
	// delivered.
	Step() int
	// Pending returns the number of queued messages.
	Pending() int
	// Stats returns a copy of the transport counters.
	Stats() Stats
	// Close releases the transport's resources. No sends or steps may
	// follow.
	Close() error
	// Err returns the first failure the transport could not report per
	// Send or Step (a broken stream), or nil. Drivers check it after a run.
	Err() error
}

// Drain steps tr until its queue is empty or maxSteps is reached, returning
// the number of steps taken.
func Drain(tr Transport, maxSteps int) int {
	steps := 0
	for steps < maxSteps && tr.Pending() > 0 {
		tr.Step()
		steps++
	}
	return steps
}

// Kind names a transport implementation.
type Kind string

const (
	// KindSim is the one-shard deterministic simulator (the default).
	KindSim Kind = "sim"
	// KindSharded is the simulator with Config.Shards parallel shards, for
	// very large runs.
	KindSharded Kind = "sharded"
	// KindTCP is the loopback TCP transport: every frame crosses a real
	// socket (or an in-memory pipe where the OS forbids loopback sockets).
	KindTCP Kind = "tcp"
)

// Kinds lists the selectable transports.
func Kinds() []Kind { return []Kind{KindSim, KindSharded, KindTCP} }

// Config selects and parameterizes a transport.
type Config struct {
	// Kind of transport; empty means KindSim.
	Kind Kind
	// PSend delivers each message with this probability; 0 or 1 means
	// reliable. The loss pattern is a pure function of (Seed, sender,
	// receiver, per-pair ordinal), identical on every transport.
	PSend float64
	// Seed drives message loss.
	Seed int64
	// Shards is KindSharded's shard count; 0 picks GOMAXPROCS.
	Shards int
}

// New builds the configured transport.
func New(cfg Config) (Transport, error) {
	psend := cfg.PSend
	if psend == 0 {
		psend = 1
	}
	switch cfg.Kind {
	case "", KindSim:
		return NewSimulator(psend, cfg.Seed)
	case KindSharded:
		return NewSharded(cfg.Shards, psend, cfg.Seed)
	case KindTCP:
		return NewTCPLoopback(psend, cfg.Seed)
	}
	return nil, fmt.Errorf("network: unknown transport kind %q", cfg.Kind)
}
