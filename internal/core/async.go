package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/factorgraph"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
	"repro/internal/wire"
)

// AsyncOptions configures RunDetectionAsync, the genuinely asynchronous
// deployment of the embedded message passing scheme: one goroutine per peer,
// no rounds, no barriers, messages crossing the wire in whatever order the
// scheduler produces (§4.3: "we do not actually require any kind of
// synchronization for the message passing schedule").
type AsyncOptions struct {
	// DefaultPrior as in DetectOptions. Defaults to 0.5.
	DefaultPrior float64
	// Ticks is how many kick rounds the driver sends. Peers are
	// event-driven — every received remote message triggers a local fold
	// and re-production — so a single kick per peer suffices to start the
	// cascade; extra kicks are cheap (an unchanged peer produces no new
	// messages). Defaults to 1.
	Ticks int
	// TickInterval optionally spaces the driver's kicks to increase
	// interleaving; 0 means flat out.
	TickInterval time.Duration
	// Tolerance classifies the final state as converged when the last
	// production at every peer moved no posterior by more than this.
	// Defaults to 1e-6.
	Tolerance float64
	// SendTolerance is the smallest message change worth propagating: a
	// recomputed µ within this distance of the last transmitted one is not
	// resent, which is what terminates the event cascade at a fixed point.
	// Defaults to 1e-12.
	SendTolerance float64
}

// maxProductions bounds the event cascade per peer so a non-contracting
// (oscillating) model terminates instead of flooding the bus forever. It is
// far above what convergent runs use (one production does the work of one
// synchronous round at the peer).
const maxProductions = 5000

// RunDetectionAsync runs detection on the goroutine-per-peer Bus transport
// as an event-driven cascade: the driver kicks every peer once, and from
// then on arriving remote messages fold into the receiver's replicas and
// schedule a low-priority recomputation that runs once the inbox is drained
// (bursts coalesce into a single production), forwarding only the µ
// messages that changed beyond SendTolerance. The run ends when the bus is
// quiescent — every message handled, every inbox empty — which at a fixed
// point of the message-passing equations happens naturally, with no barrier
// or round structure anywhere. All peer state is touched only on the peer's dispatch
// goroutine, so the run is free of data races by construction; the
// interleaving of messages across peers is entirely up to the Go scheduler,
// making every run a fresh demonstration that the scheme needs no
// synchronization. Results converge to a loopy-BP fixed point of the same
// model the synchronous schedules solve (identical whenever that fixed
// point is unique and attractive, e.g. on tree factor graphs).
func (n *Network) RunDetectionAsync(opts AsyncOptions) (DetectResult, error) {
	if opts.DefaultPrior == 0 {
		opts.DefaultPrior = 0.5
	}
	if opts.DefaultPrior < 0 || opts.DefaultPrior > 1 {
		return DetectResult{}, fmt.Errorf("core: default prior %v out of [0,1]", opts.DefaultPrior)
	}
	if opts.Ticks == 0 {
		opts.Ticks = 1
	}
	if opts.Ticks < 0 {
		return DetectResult{}, fmt.Errorf("core: negative Ticks")
	}
	if opts.Tolerance == 0 {
		opts.Tolerance = 1e-6
	}
	if opts.SendTolerance == 0 {
		opts.SendTolerance = 1e-12
	}

	bus := network.NewBus()
	// Control frames are constant; encode them once (payloads are
	// read-only).
	kickFrame := wire.Encode(wire.Kick{})
	tickFrame := wire.Encode(wire.Tick{})

	// lastDelta[peer] and budgetHit are written only on the peer's dispatch
	// goroutine and read after bus.Close(), when all dispatchers have
	// exited. markers counts the coalescing self-notifications so they can
	// be excluded from the remote-message tally.
	var mu sync.Mutex
	lastDelta := make(map[graph.PeerID]float64, n.NumPeers())
	budgetHit := false
	markers := 0

	for _, p := range n.Peers() {
		lastSent := make(map[*factorRef]factorgraph.Msg)
		productions := 0
		produce := func() {
			if productions >= maxProductions {
				mu.Lock()
				budgetHit = true
				mu.Unlock()
				return
			}
			productions++
			delta := p.produce(opts.DefaultPrior, func(f *factorRef, out factorgraph.Msg) {
				if prev, ok := lastSent[f]; ok &&
					math.Abs(prev[0]-out[0]) <= opts.SendTolerance &&
					math.Abs(prev[1]-out[1]) <= opts.SendTolerance {
					return
				}
				lastSent[f] = out
				emit(bus, p, f, out, nil)
			})
			mu.Lock()
			lastDelta[p.id] = delta
			mu.Unlock()
		}
		// Remote messages only fold into the replicas; production is
		// deferred to a low-priority marker the peer sends itself, which
		// the bus serves once the regular inbox is empty. Bursts of
		// arrivals therefore coalesce into a single recomputation — one
		// production does the work of one synchronous round — instead of
		// one full produce per message. producePending is touched only on
		// this peer's dispatch goroutine.
		producePending := false
		handler := func(e network.Envelope) {
			m, err := wire.Decode(e.Payload)
			if err != nil {
				return // corrupt frame: drop
			}
			switch m := m.(type) {
			case wire.Remote:
				p.handleRemote(m)
				if !producePending {
					producePending = true
					mu.Lock()
					markers++
					mu.Unlock()
					bus.SendLow(network.Envelope{From: p.id, To: p.id, Payload: tickFrame})
				}
			case wire.Kick, wire.Tick:
				producePending = false
				produce()
			}
		}
		if err := bus.Register(p.id, handler); err != nil {
			bus.Close()
			return DetectResult{}, err
		}
	}

	kicks := 0
	for t := 0; t < opts.Ticks; t++ {
		for _, p := range n.Peers() {
			bus.SendLow(network.Envelope{From: "driver", To: p.ID(), Payload: kickFrame})
			kicks++
		}
		if opts.TickInterval > 0 {
			time.Sleep(opts.TickInterval)
		}
	}
	// Wait for the cascade to die out: no handler running, no message
	// pending. The production budget guarantees this terminates.
	deadline := time.Now().Add(time.Minute)
	for !bus.Quiescent() && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	bus.Close()

	res := DetectResult{
		Posteriors: n.snapshotPosteriors(opts.DefaultPrior),
		Rounds:     opts.Ticks,
	}
	// A peer that exhausted its production budget stopped mid-cascade: the
	// state is not a verified fixed point, whatever its last delta said.
	res.Converged = !budgetHit
	for _, d := range lastDelta {
		if d >= opts.Tolerance {
			res.Converged = false
		}
	}
	st := bus.Stats()
	res.Transport = st
	res.RemoteMessages = st.Sent - kicks - markers // exclude kicks and self-markers
	return res, nil
}

// AttrPosterior is a convenience for reading one posterior from a result
// map, mirroring DetectResult.Posterior for the snapshot maps used by the
// lazy and async runners.
func AttrPosterior(post map[graph.EdgeID]map[schema.Attribute]float64, m graph.EdgeID, a schema.Attribute, def float64) float64 {
	if mm, ok := post[m]; ok {
		if p, ok := mm[a]; ok {
			return p
		}
	}
	return def
}
