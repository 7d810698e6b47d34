package network

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
)

// Interface compliance.
var (
	_ Transport = (*Simulator)(nil)
	_ Transport = (*Loopback)(nil)
)

// driveWorkload pushes a fixed multi-step traffic pattern through a
// transport — every peer relays to its ring successor with a TTL, so
// handler-time sends are exercised too — plus one envelope to an
// unregistered peer, and returns per-peer delivery tallies plus the final
// stats.
func driveWorkload(t *testing.T, tr Transport, peers int) (map[string][]string, Stats) {
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
	Drain(tr, 20)
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
			build := map[string]func() (Transport, error){
				"sharded-1": func() (Transport, error) { return NewSharded(1, psend, 42) },
				"sharded-4": func() (Transport, error) { return NewSharded(4, psend, 42) },
				"sharded-0": func() (Transport, error) { return NewSharded(0, psend, 42) },
				"tcp":       func() (Transport, error) { return NewTCPLoopback(psend, 42) },
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

// TestTransportsKeepPairOrder: on every transport, each receiver sees each
// sender's envelopes in send order — consecutively when delivery is
// reliable, in increasing order under loss. Senders send from the driver
// between steps and from handlers during them, to several receivers each.
func TestTransportsKeepPairOrder(t *testing.T) {
	const peers, perPair, ttl = 6, 5, 2
	name := func(i int) graph.PeerID { return graph.PeerID(fmt.Sprintf("p%d", i)) }
	for _, psend := range []float64{1, 0.7} {
		cfgs := []Config{{Kind: KindSharded, Shards: 4}}
		for _, k := range Kinds() {
			cfgs = append(cfgs, Config{Kind: k})
		}
		for _, cfg := range cfgs {
			cfg.PSend, cfg.Seed = psend, 3
			t.Run(fmt.Sprintf("%s-%d/psend=%v", cfg.Kind, cfg.Shards, psend), func(t *testing.T) {
				tr, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// A peer's state is touched only by its own handler (on its
				// shard's worker) and by the driver between steps.
				type peer struct {
					next, last map[graph.PeerID]uint32 // per-pair send ordinal; last ordinal seen + 1
					errs       []string
				}
				state := make([]*peer, peers)
				send := func(i, to int, hops byte) {
					p := state[i]
					n := p.next[name(to)]
					p.next[name(to)] = n + 1
					tr.Send(Envelope{From: name(i), To: name(to), Payload: []byte{hops, byte(n >> 8), byte(n)}})
				}
				for i := range peers {
					state[i] = &peer{next: map[graph.PeerID]uint32{}, last: map[graph.PeerID]uint32{}}
					err := tr.Register(name(i), func(e Envelope) {
						p := state[i]
						n := uint32(e.Payload[1])<<8 | uint32(e.Payload[2])
						if want := p.last[e.From]; n < want || psend == 1 && n != want {
							p.errs = append(p.errs, fmt.Sprintf("from %s: ordinal %d after %d", e.From, n, want))
						}
						p.last[e.From] = n + 1
						if hops := e.Payload[0]; hops > 0 {
							send(i, (i+1)%peers, hops-1)
							send(i, (i+2)%peers, hops-1)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				for range perPair {
					for i := range peers {
						for to := range peers {
							if to != i {
								send(i, to, ttl)
							}
						}
					}
				}
				Drain(tr, ttl+2)
				st := tr.Stats()
				if err := tr.Err(); err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				if tr.Pending() != 0 || st.Sent != st.Delivered+st.Dropped || psend == 1 && st.Dropped != 0 {
					t.Fatalf("stats %+v, %d pending: traffic did not settle", st, tr.Pending())
				}
				for i, p := range state {
					for _, e := range p.errs {
						t.Errorf("%s: %s", name(i), e)
					}
				}
			})
		}
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

// TestLoopbackCloseIsClean: closing a healthy loopback is not a stream
// failure. Err stays nil after every Close, cycle after cycle.
func TestLoopbackCloseIsClean(t *testing.T) {
	for i := 0; i < 20; i++ {
		tr, err := NewTCPLoopback(1, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Register("a", func(Envelope) {}); err != nil {
			t.Fatal(err)
		}
		tr.Send(Envelope{From: "b", To: "a", Payload: []byte{byte(i)}})
		tr.Step()
		if err := tr.Close(); err != nil {
			t.Fatalf("cycle %d: Close: %v", i, err)
		}
		if err := tr.Err(); err != nil {
			t.Fatalf("cycle %d: Err after Close = %v", i, err)
		}
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
