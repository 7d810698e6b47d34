package network

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

func TestNewSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(0, 0); err == nil {
		t.Error("psend=0: want error")
	}
	if _, err := NewSimulator(1.5, 0); err == nil {
		t.Error("psend>1: want error")
	}
	if _, err := NewSimulator(math.NaN(), 0); err == nil {
		t.Error("psend NaN: want error")
	}
	if _, err := NewSimulator(1, 0); err != nil {
		t.Errorf("reliable simulator should work: %v", err)
	}
	if _, err := NewSimulator(0.5, 7); err != nil {
		t.Errorf("lossy simulator should work: %v", err)
	}
}

func TestSimulatorDelivery(t *testing.T) {
	s, err := NewSimulator(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := s.Register("a", func(e Envelope) { got = append(got, string(e.Payload)) }); err != nil {
		t.Fatal(err)
	}
	s.Send(Envelope{From: "b", To: "a", Payload: []byte("one")})
	s.Send(Envelope{From: "b", To: "a", Payload: []byte("two")})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	if n := s.Step(); n != 2 {
		t.Errorf("Step delivered %d, want 2", n)
	}
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("got = %v", got)
	}
	st := s.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimulatorDuplicateRegistration(t *testing.T) {
	s, _ := NewSimulator(1, 0)
	if err := s.Register("a", func(Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("a", func(Envelope) {}); err == nil {
		t.Error("duplicate registration: want error")
	}
}

func TestSimulatorNextStepSemantics(t *testing.T) {
	// A message sent during delivery arrives only in the following step.
	s, _ := NewSimulator(1, 0)
	var deliveredAt []int
	step := 0
	s.Register("a", func(e Envelope) {
		deliveredAt = append(deliveredAt, step)
		if e.Payload[0] < 2 {
			s.Send(Envelope{From: "a", To: "a", Payload: []byte{e.Payload[0] + 1}})
		}
	})
	s.Send(Envelope{From: "x", To: "a", Payload: []byte{0}})
	for step = 1; step <= 5 && s.Pending() > 0; step++ {
		s.Step()
	}
	if len(deliveredAt) != 3 {
		t.Fatalf("deliveries = %v, want 3", deliveredAt)
	}
	for i := 1; i < len(deliveredAt); i++ {
		if deliveredAt[i] != deliveredAt[i-1]+1 {
			t.Errorf("deliveries not one per step: %v", deliveredAt)
		}
	}
}

func TestSimulatorUnknownPeerDropped(t *testing.T) {
	s, _ := NewSimulator(1, 0)
	s.Send(Envelope{From: "x", To: "ghost", Payload: []byte{1}})
	s.Step()
	if st := s.Stats(); st.Dropped != 1 || st.Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimulatorLossIsSeeded(t *testing.T) {
	run := func(seed int64) Stats {
		s, err := NewSimulator(0.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		s.Register("a", func(Envelope) {})
		for i := 0; i < 1000; i++ {
			s.Send(Envelope{From: "b", To: "a"})
		}
		s.Drain(10)
		return s.Stats()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Errorf("same seed, different stats: %+v vs %+v", a, b)
	}
	if c := run(8); c == a {
		t.Errorf("different seeds, same loss pattern: %+v", c)
	}
	if a.Dropped < 400 || a.Dropped > 600 {
		t.Errorf("dropped = %d, expected ≈500 of 1000", a.Dropped)
	}
	if a.Delivered+a.Dropped != a.Sent {
		t.Errorf("counters inconsistent: %+v", a)
	}
}

func TestSimulatorDrain(t *testing.T) {
	s, _ := NewSimulator(1, 0)
	count := 0
	s.Register("a", func(e Envelope) {
		count++
		if count < 3 {
			s.Send(Envelope{From: "a", To: "a"})
		}
	})
	s.Send(Envelope{From: "x", To: "a"})
	steps := s.Drain(10)
	if steps != 3 {
		t.Errorf("Drain took %d steps, want 3", steps)
	}
	if s.Pending() != 0 {
		t.Error("queue not drained")
	}
	s.ResetStats()
	if s.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestBusDeliversConcurrently(t *testing.T) {
	b := NewBus()
	const n = 200
	var delivered int64
	var wg sync.WaitGroup
	wg.Add(n * 2)
	for _, p := range []graph.PeerID{"a", "b"} {
		if err := b.Register(p, func(Envelope) {
			atomic.AddInt64(&delivered, 1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		go b.Send(Envelope{From: "a", To: "b"})
		go b.Send(Envelope{From: "b", To: "a"})
	}
	wg.Wait()
	b.Close()
	if delivered != n*2 {
		t.Errorf("delivered = %d, want %d", delivered, n*2)
	}
	if st := b.Stats(); st.Delivered != n*2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBusOrderPerPeer(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	if err := b.Register("a", func(e Envelope) {
		mu.Lock()
		got = append(got, int(e.Payload[0]))
		n := len(got)
		mu.Unlock()
		if n == 100 {
			close(done)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b.Send(Envelope{From: "x", To: "a", Payload: []byte{byte(i)}})
	}
	<-done
	b.Close()
	for i := range got {
		if got[i] != i {
			t.Fatalf("out of order delivery: %v", got[:i+1])
		}
	}
}

func TestBusErrors(t *testing.T) {
	b := NewBus()
	if err := b.Register("a", func(Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("a", func(Envelope) {}); err == nil {
		t.Error("duplicate registration: want error")
	}
	b.Send(Envelope{From: "a", To: "ghost"})
	b.Close()
	b.Close() // idempotent
	if err := b.Register("b", func(Envelope) {}); err == nil {
		t.Error("register after close: want error")
	}
	b.Send(Envelope{From: "a", To: "a"}) // dropped, no panic
	st := b.Stats()
	if st.Dropped < 2 {
		t.Errorf("stats = %+v, want at least 2 drops", st)
	}
}

func TestBusCloseDrainsQueued(t *testing.T) {
	b := NewBus()
	var count int64
	block := make(chan struct{})
	if err := b.Register("a", func(e Envelope) {
		if e.Payload[0] == 0 {
			<-block
		}
		atomic.AddInt64(&count, 1)
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.Send(Envelope{From: "x", To: "a", Payload: []byte{byte(i)}})
	}
	close(block)
	b.Close()
	if got := atomic.LoadInt64(&count); got != 10 {
		t.Errorf("delivered %d, want all 10 before Close returns", got)
	}
}
