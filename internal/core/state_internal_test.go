package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/factorgraph"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
	"repro/internal/wire"
)

func testEvidence(nVars int, vals []float64) *evidenceRef {
	ev := &evidenceRef{ID: "test", Attr: "a", Polarity: feedback.Positive, Vals: vals}
	for i := 0; i < nVars; i++ {
		ev.Mappings = append(ev.Mappings, graph.EdgeID(rune('a'+i)))
		ev.Owners = append(ev.Owners, graph.PeerID(rune('A'+i)))
	}
	return ev
}

// TestReplicaMessageMatchesCountingFactor: the peer-local DP must agree with
// the factorgraph package's Counting factor on random inputs.
func TestReplicaMessageMatchesCountingFactor(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		vals := make([]float64, n+1)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		ev := testEvidence(n, vals)
		r := newEvReplica(ev)
		g := factorgraph.New()
		vars := make([]*factorgraph.Var, n)
		incoming := make([]factorgraph.Msg, n)
		for i := range vars {
			vars[i] = g.MustAddVar(string(rune('a' + i)))
			incoming[i] = factorgraph.Msg{rng.Float64(), rng.Float64()}
			r.remote[i] = incoming[i]
		}
		c, err := factorgraph.NewCounting(vars, vals)
		if err != nil {
			return false
		}
		for pos := 0; pos < n; pos++ {
			got := r.message(pos)
			want := c.Message(pos, incoming).Normalized()
			if math.Abs(got[0]-want[0]) > 1e-12 || math.Abs(got[1]-want[1]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVarStateMath(t *testing.T) {
	ev1 := testEvidence(2, []float64{1, 0, 0.1})
	ev2 := testEvidence(2, []float64{0, 1, 0.9})
	r1, r2 := newEvReplica(ev1), newEvReplica(ev2)
	vs := newVarState(varKey{Mapping: "m", Attr: "a"})
	vs.addFactor(r1, 0)
	vs.addFactor(r2, 0)
	vs.addFactor(r1, 0) // duplicate registration ignored
	if len(vs.factors) != 2 {
		t.Fatalf("factors = %d, want 2", len(vs.factors))
	}
	// From unit messages the posterior is the prior, so the first refresh
	// moves it by exactly |posterior − prior|; a second one moves nothing.
	if moved, want := vs.refresh(0.5), math.Abs(vs.posterior(0.5)-0.5); moved != want || moved == 0 {
		t.Errorf("refresh moved the posterior by %v, want %v (non-zero)", moved, want)
	}
	if moved := vs.refresh(0.5); moved != 0 {
		t.Errorf("idle refresh moved the posterior by %v", moved)
	}
	// outgoing to factor 0 must exclude factor 0's own contribution.
	out0 := vs.outgoing(0, 0.5)
	manual := factorgraph.Msg{0.5, 0.5}.Mul(vs.factors[1].toVar).Normalized()
	if math.Abs(out0[0]-manual[0]) > 1e-12 {
		t.Errorf("outgoing(0) = %v, want %v", out0, manual)
	}
	// posterior includes everything.
	post := vs.posterior(0.5)
	full := factorgraph.Msg{0.5, 0.5}.Mul(vs.factors[0].toVar).Mul(vs.factors[1].toVar).Normalized()
	if math.Abs(post-full[0]) > 1e-12 {
		t.Errorf("posterior = %v, want %v", post, full[0])
	}
	// With no factors, posterior equals the prior.
	lone := newVarState(varKey{Mapping: "x", Attr: "a"})
	if p := lone.posterior(0.7); math.Abs(p-0.7) > 1e-12 {
		t.Errorf("bare posterior = %v", p)
	}
}

func TestHandleRemoteBounds(t *testing.T) {
	n := NewNetwork(true)
	s := mustSchema(t)
	p, err := n.AddPeer("p", s)
	if err != nil {
		t.Fatal(err)
	}
	ev := testEvidence(2, []float64{1, 0, 0.1})
	p.evs[ev.ID] = newEvReplica(ev)
	// Unknown evidence and out-of-range positions are ignored silently
	// (stale messages after churn must not crash peers).
	p.handleRemote([]byte("ghost"), 0, factorgraph.Unit())
	p.handleRemote([]byte(ev.ID), -1, factorgraph.Unit())
	p.handleRemote([]byte(ev.ID), 99, factorgraph.Unit())
	p.handleRemote([]byte(ev.ID), 1, [2]float64{0.2, 0.8})
	if got := p.evs[ev.ID].remote[1]; got != (factorgraph.Msg{0.2, 0.8}) {
		t.Errorf("remote not stored: %v", got)
	}
}

// TestHandlerDropsNonFiniteMessages: a delivered frame whose µ-message has a
// NaN, infinite or negative component is malformed — honest senders emit
// finite non-negative messages — and the detection handler drops it, leaving
// the replica's slot as it was. Stored, one such frame would poison every
// posterior of its component, and a NaN move would never count against
// convergence.
func TestHandlerDropsNonFiniteMessages(t *testing.T) {
	n := NewNetwork(true)
	p, err := n.AddPeer("p", mustSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	ev := testEvidence(2, []float64{1, 0, 0.1})
	p.evs[ev.ID] = newEvReplica(ev)
	tr, err := openTransport(network.Config{}, []*Peer{p})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	deliver := func(msg [2]float64) {
		tr.Send(network.Envelope{From: "B", To: "p", Payload: wire.Encode(wire.Remote{EvID: ev.ID, Pos: 1, Msg: msg})})
		if tr.Step() != 1 {
			t.Fatalf("frame %v not delivered", msg)
		}
	}
	want := factorgraph.Msg{0.2, 0.8}
	deliver(want)
	for _, bad := range [][2]float64{
		{math.NaN(), 0.5}, {0.5, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)}, {-0.25, 1.25}, {1, -1e-300},
	} {
		deliver(bad)
		if got := p.evs[ev.ID].remote[1]; got != want {
			t.Errorf("frame %v stored: slot holds %v, want %v", bad, got, want)
		}
	}
}

func TestOtherOwnersDedup(t *testing.T) {
	ev := &evidenceRef{
		Mappings: []graph.EdgeID{"a", "b", "c", "d"},
		Owners:   []graph.PeerID{"P", "Q", "Q", "P"},
	}
	got := ev.otherOwners(0, "P")
	if len(got) != 1 || got[0] != "Q" {
		t.Errorf("otherOwners = %v, want [Q]", got)
	}
	got = ev.otherOwners(1, "Q")
	if len(got) != 1 || got[0] != "P" {
		t.Errorf("otherOwners = %v, want [P]", got)
	}
}

func TestSortedVarKeysOrder(t *testing.T) {
	n := NewNetwork(true)
	s := mustSchema(t)
	p, err := n.AddPeer("p", s)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []varKey{
		{Mapping: "m2", Attr: "b"},
		{Mapping: "m1", Attr: "z"},
		{Mapping: "m2", Attr: "a"},
		{Mapping: "m1", Attr: "a"},
	} {
		p.vars[k] = newVarState(k)
	}
	keys := p.sortedVarKeys()
	want := []varKey{
		{Mapping: "m1", Attr: "a"},
		{Mapping: "m1", Attr: "z"},
		{Mapping: "m2", Attr: "a"},
		{Mapping: "m2", Attr: "b"},
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
}

func TestSetPriorSeedsSamples(t *testing.T) {
	n := NewNetwork(true)
	s := mustSchema(t)
	p, err := n.AddPeer("p", s)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPrior("m", "a", 0.9)
	if got := p.PriorFor("m", "a", 0.5); got != 0.9 {
		t.Errorf("PriorFor = %v", got)
	}
	if got := p.PriorFor("m", "other", 0.5); got != 0.5 {
		t.Errorf("unset PriorFor = %v", got)
	}
	if samples := p.samples[varKey{Mapping: "m", Attr: "a"}]; len(samples) != 1 || samples[0] != 0.9 {
		t.Errorf("samples = %v", samples)
	}
}

func mustSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("S", "a", "b", "z")
}

// TestReplicaDirtyInvalidation pins the setRemote → message cache
// contract with interleaved reads and writes: every write must invalidate
// the batched message cache, and reads between writes must reflect the
// remote state at read time.
func TestReplicaDirtyInvalidation(t *testing.T) {
	vals := []float64{1, 0, 0.1, 0.1}
	ev := testEvidence(3, vals)
	r := newEvReplica(ev)
	g := factorgraph.New()
	vars := []*factorgraph.Var{g.MustAddVar("a"), g.MustAddVar("b"), g.MustAddVar("c")}
	c, err := factorgraph.NewCounting(vars, vals)
	if err != nil {
		t.Fatal(err)
	}
	incoming := []factorgraph.Msg{factorgraph.Unit(), factorgraph.Unit(), factorgraph.Unit()}
	check := func(stage string) {
		t.Helper()
		for pos := 0; pos < 3; pos++ {
			got := r.message(pos)
			want := c.Message(pos, incoming).Normalized()
			if math.Abs(got[0]-want[0]) > 1e-12 || math.Abs(got[1]-want[1]) > 1e-12 {
				t.Fatalf("%s: message(%d) = %v, want %v", stage, pos, got, want)
			}
		}
	}
	check("initial unit state")
	incoming[1] = factorgraph.Msg{0.2, 0.8}
	r.setRemote(1, incoming[1])
	check("after first setRemote")
	incoming[0] = factorgraph.Msg{0.9, 0.1}
	incoming[2] = factorgraph.Msg{0.4, 0.6}
	r.setRemote(0, incoming[0])
	r.setRemote(2, incoming[2])
	check("after second round of setRemote")
}

// TestOutgoingAllMatchesOutgoing: the O(deg) prefix/suffix batch — the
// only production path for variable→factor messages — must agree with the
// retained per-factor reference for every factor index.
func TestOutgoingAllMatchesOutgoing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vs := newVarState(varKey{Mapping: "m", Attr: "a"})
		deg := 1 + rng.Intn(6)
		for j := 0; j < deg; j++ {
			ev := testEvidence(2, []float64{1, 0, 0.1})
			r := newEvReplica(ev)
			vs.addFactor(r, 0)
			vs.factors[j].toVar = factorgraph.Msg{rng.Float64(), rng.Float64()}
		}
		prior := 0.05 + 0.9*rng.Float64()
		outs := vs.outgoingAll(prior)
		for fi := 0; fi < deg; fi++ {
			want := vs.outgoing(fi, prior)
			if math.Abs(outs[fi][0]-want[0]) > 1e-12 || math.Abs(outs[fi][1]-want[1]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
