package network

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// Interface compliance.
var (
	_ Stepped   = (*Simulator)(nil)
	_ Stepped   = (*Loopback)(nil)
	_ Transport = (*Bus)(nil)
)

// driveWorkload pushes a fixed multi-step traffic pattern through a stepped
// transport — every peer relays to its ring successor with a TTL, so
// handler-time sends are exercised too — plus one envelope to an
// unregistered peer, and returns per-peer delivery tallies plus the final
// stats.
func driveWorkload(t *testing.T, tr Stepped, peers int) (map[string][]string, Stats) {
	t.Helper()
	got := make(map[string][]string)
	var mu sync.Mutex
	name := func(i int) graph.PeerID { return graph.PeerID(fmt.Sprintf("p%d", i)) }
	for i := 0; i < peers; i++ {
		i := i
		p := name(i)
		if err := tr.Register(p, func(e Envelope) {
			mu.Lock()
			got[string(p)] = append(got[string(p)], fmt.Sprintf("%s:%x", e.From, e.Payload))
			mu.Unlock()
			if ttl := e.Payload[0]; ttl > 0 {
				tr.Send(Envelope{From: p, To: name((i + 1) % peers), Payload: []byte{ttl - 1}})
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < peers; i++ {
		tr.Send(Envelope{From: "driver", To: name(i), Payload: []byte{4}})
	}
	tr.Send(Envelope{From: "driver", To: "ghost", Payload: []byte{0}})
	tr.Drain(20)
	st := tr.Stats()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Sort each peer's log: transports may interleave a step's deliveries
	// differently, but the multiset per peer per run must match.
	for _, log := range got {
		sort.Strings(log)
	}
	return got, st
}

// TestSteppedTransportsEquivalent: the same workload yields identical
// deliveries, drops and stats on the one-shard Simulator, the simulator at
// several other shard counts and the TCP loopback — reliable and lossy, the
// drop of the envelope to an unregistered peer included.
func TestSteppedTransportsEquivalent(t *testing.T) {
	for _, psend := range []float64{1, 0.7} {
		psend := psend
		t.Run(fmt.Sprintf("psend=%v", psend), func(t *testing.T) {
			ref, refStats := driveWorkload(t, mustSim(t, psend, 42), 9)
			if refStats.Sent != refStats.Delivered+refStats.Dropped || psend == 1 && refStats.Dropped != 1 {
				t.Fatalf("simulator stats %+v: want the unregistered peer's envelope as the only reliable drop", refStats)
			}
			build := map[string]func() (Stepped, error){
				"sharded-1": func() (Stepped, error) { return NewSharded(1, psend, 42) },
				"sharded-4": func() (Stepped, error) { return NewSharded(4, psend, 42) },
				"sharded-0": func() (Stepped, error) { return NewSharded(0, psend, 42) },
				"tcp":       func() (Stepped, error) { return NewTCPLoopback(psend, 42) },
			}
			for name, mk := range build {
				tr, err := mk()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, st := driveWorkload(t, tr, 9)
				if st != refStats {
					t.Errorf("%s: stats %+v, simulator %+v", name, st, refStats)
				}
				if len(got) != len(ref) {
					t.Fatalf("%s: %d peers got traffic, simulator %d", name, len(got), len(ref))
				}
				for p, log := range ref {
					if fmt.Sprint(got[p]) != fmt.Sprint(log) {
						t.Errorf("%s: peer %s deliveries %v, simulator %v", name, p, got[p], log)
					}
				}
			}
		})
	}
}

func mustSim(t *testing.T, psend float64, seed int64) *Simulator {
	t.Helper()
	s, err := NewSimulator(psend, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBusDropAccountingMatchesSimulator: under identical lossy traffic the
// Bus drops exactly the messages the Simulator drops, and both account them
// identically (Sent = Delivered + Dropped, loss counted at send time).
func TestBusDropAccountingMatchesSimulator(t *testing.T) {
	const n = 500
	sim := mustSim(t, 0.6, 99)
	sim.Register("a", func(Envelope) {})
	sim.Register("b", func(Envelope) {})
	for i := 0; i < n; i++ {
		sim.Send(Envelope{From: "x", To: "a"})
		sim.Send(Envelope{From: "y", To: "b"})
	}
	sim.Drain(5)
	simStats := sim.Stats()

	bus, err := NewLossyBus(0.6, 99)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("a", func(Envelope) {})
	bus.Register("b", func(Envelope) {})
	for i := 0; i < n; i++ {
		bus.Send(Envelope{From: "x", To: "a"})
		bus.Send(Envelope{From: "y", To: "b"})
	}
	deadline := time.Now().Add(5 * time.Second)
	for !bus.Quiescent() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	bus.Close()
	busStats := bus.Stats()

	if busStats != simStats {
		t.Errorf("bus stats %+v, simulator stats %+v — drop accounting diverged", busStats, simStats)
	}
	if busStats.Sent != busStats.Delivered+busStats.Dropped {
		t.Errorf("bus accounting leak: %+v", busStats)
	}
	if busStats.Dropped == 0 || busStats.Dropped == 2*n {
		t.Errorf("degenerate loss: %+v", busStats)
	}
}

// TestLossyBusControlFramesExempt: low-priority envelopes (local timers)
// are never lost, whatever the loss rate of regular traffic.
func TestLossyBusControlFramesExempt(t *testing.T) {
	bus, err := NewLossyBus(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var ticks int
	var mu sync.Mutex
	bus.Register("a", func(Envelope) {
		mu.Lock()
		ticks++
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		bus.SendLow(Envelope{From: "driver", To: "a"})
	}
	deadline := time.Now().Add(5 * time.Second)
	for !bus.Quiescent() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	bus.Close()
	if ticks != 100 {
		t.Errorf("delivered %d of 100 low-priority envelopes", ticks)
	}
}

// TestNewLossyBusValidation mirrors the simulator's psend validation.
func TestNewLossyBusValidation(t *testing.T) {
	if _, err := NewLossyBus(0, 0); err == nil {
		t.Error("psend=0: want error")
	}
	if _, err := NewLossyBus(2, 0); err == nil {
		t.Error("psend>1: want error")
	}
	b, err := NewLossyBus(1, 0)
	if err != nil || b == nil {
		t.Errorf("psend=1 must build a reliable bus: %v", err)
	}
	b.Close()
}

// TestShardedAssignsAndSteps: peers spread across shards, delivery works,
// and Step returns the per-step delivery count like Simulator.
func TestShardedAssignsAndSteps(t *testing.T) {
	s, err := NewSharded(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 9; i++ {
		p := graph.PeerID(fmt.Sprintf("p%d", i))
		if err := s.Register(p, func(Envelope) {}); err != nil {
			t.Fatal(err)
		}
		seen[s.ShardOf(p)] = true
	}
	if len(seen) != 3 {
		t.Errorf("peers concentrated on %d of 3 shards", len(seen))
	}
	if err := s.Register("p0", nil); err == nil {
		t.Error("duplicate registration: want error")
	}
	for i := 0; i < 9; i++ {
		s.Send(Envelope{From: "p0", To: graph.PeerID(fmt.Sprintf("p%d", i))})
	}
	s.Send(Envelope{From: "p0", To: "ghost"})
	if n := s.Step(); n != 9 {
		t.Errorf("Step delivered %d, want 9", n)
	}
	st := s.Stats()
	if st.Sent != 10 || st.Delivered != 9 || st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLoopbackCarriesRealBytes: payload bytes survive the stream unchanged
// and arrive as independent copies.
func TestLoopbackCarriesRealBytes(t *testing.T) {
	tr, err := NewTCPLoopback(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	t.Logf("loopback over TCP: %v", tr.TCP())
	var got [][]byte
	tr.Register("a", func(e Envelope) { got = append(got, e.Payload) })
	payload := []byte{0, 1, 2, 0xff, 0x80}
	tr.Send(Envelope{From: "b", To: "a", Payload: payload})
	payload[0] = 9 // mutating the sender's buffer must not affect delivery…
	tr.Step()
	if len(got) != 1 || fmt.Sprintf("%x", got[0]) != "000102ff80" {
		t.Fatalf("delivered %x, want 000102ff80", got)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
}

// TestNewConfigDispatch: the Config constructor builds every kind and
// rejects unknown ones.
func TestNewConfigDispatch(t *testing.T) {
	for _, k := range Kinds() {
		tr, err := New(Config{Kind: k, PSend: 0.9, Seed: 1, Shards: 2})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		tr.Close()
	}
	if tr, err := New(Config{}); err != nil {
		t.Errorf("default config: %v", err)
	} else {
		if _, ok := tr.(*Simulator); !ok {
			t.Errorf("default transport is %T, want *Simulator", tr)
		}
		tr.Close()
	}
	if _, err := New(Config{Kind: "quantum"}); err == nil {
		t.Error("unknown kind: want error")
	}
}

// TestLoopbackSurfacesStreamErrors: a broken stream must be reported by
// Err() (and through it by RunDetection) instead of silently losing
// messages.
func TestLoopbackSurfacesStreamErrors(t *testing.T) {
	tr, err := NewTCPLoopback(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Register("a", func(Envelope) {})
	tr.Close()
	tr.Send(Envelope{From: "b", To: "a", Payload: []byte{1}})
	tr.Step()
	if tr.Err() == nil {
		t.Error("stream torn down mid-run, but Err() reports nothing")
	}
}
