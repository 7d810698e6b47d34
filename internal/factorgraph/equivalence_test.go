package factorgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This suite pins the compiled kernel (engine.go) to the preserved naive
// reference implementation (naive_test.go) and, where belief propagation is
// exact, to full enumeration (Graph.Exact): message-for-message and
// posterior-for-posterior within 1e-9, on trees, single feedback cycles,
// and random loopy graphs, with and without damping, message loss, and
// parallel sweeps.

const eqTol = 1e-9

// chainTree builds a chain of pairwise counting factors with a prior on
// every variable — a tree factor graph of depth n.
func chainTree(n int, rng *rand.Rand) *Graph {
	g := New()
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = g.MustAddVar(fmt.Sprintf("v%d", i))
		g.MustAddFactor(Prior{V: vars[i], P: 0.05 + 0.9*rng.Float64()})
	}
	for i := 0; i+1 < n; i++ {
		vals := []float64{0.1 + rng.Float64(), rng.Float64(), rng.Float64()}
		c, err := NewCounting([]*Var{vars[i], vars[i+1]}, vals)
		if err != nil {
			panic(err)
		}
		g.MustAddFactor(c)
	}
	return g
}

// singleCycle builds one feedback cycle of length n: a counting factor over
// all n mapping variables plus priors — the tree-shaped factor graph of
// Fig 10, where two iterations are exact.
func singleCycle(n int, delta float64, rng *rand.Rand) *Graph {
	g := New()
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = g.MustAddVar(fmt.Sprintf("m%d", i))
		g.MustAddFactor(Prior{V: vars[i], P: 0.05 + 0.9*rng.Float64()})
	}
	vals := make([]float64, n+1)
	vals[0] = 1
	for k := 2; k <= n; k++ {
		vals[k] = delta
	}
	c, err := NewCounting(vars, vals)
	if err != nil {
		panic(err)
	}
	g.MustAddFactor(c)
	return g
}

// randomLoopy builds a random loopy factor graph: priors on every variable
// plus nFactors counting or tabular factors over random distinct subsets.
func randomLoopy(nVars, nFactors, maxArity int, rng *rand.Rand) *Graph {
	g := New()
	vars := make([]*Var, nVars)
	for i := range vars {
		vars[i] = g.MustAddVar(fmt.Sprintf("v%d", i))
		g.MustAddFactor(Prior{V: vars[i], P: 0.05 + 0.9*rng.Float64()})
	}
	for k := 0; k < nFactors; k++ {
		size := 2 + rng.Intn(maxArity-1)
		idx := rng.Perm(nVars)[:size]
		sub := make([]*Var, size)
		for i, j := range idx {
			sub[i] = vars[j]
		}
		if rng.Intn(4) == 0 {
			table := make([]float64, 1<<size)
			for i := range table {
				table[i] = rng.Float64()
			}
			table[0] += 0.05
			tf, err := NewTabular(sub, table)
			if err != nil {
				panic(err)
			}
			g.MustAddFactor(tf)
			continue
		}
		vals := make([]float64, size+1)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		vals[0] += 0.05
		c, err := NewCounting(sub, vals)
		if err != nil {
			panic(err)
		}
		g.MustAddFactor(c)
	}
	return g
}

// assertEngineMatchesNaive runs the compiled kernel and the naive reference
// with identical options (cloning the Rng seed for lossy runs) and asserts
// that every message and every posterior agree within eqTol.
func assertEngineMatchesNaive(t *testing.T, g *Graph, opts Options, seed int64) Result {
	t.Helper()
	naiveOpts := opts
	engineOpts := opts
	if opts.PSend > 0 && opts.PSend < 1 {
		naiveOpts.Rng = rand.New(rand.NewSource(seed))
		engineOpts.Rng = rand.New(rand.NewSource(seed))
	}
	want, wantF2V, wantV2F, err := g.runNaiveCapture(naiveOpts)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	e := NewEngine(g)
	defer e.Close()
	got, err := e.Run(engineOpts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("engine (iters=%d conv=%v) diverges from naive (iters=%d conv=%v)",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for name, w := range want.Posteriors {
		if gp, ok := got.Posteriors[name]; !ok || math.Abs(gp-w) > eqTol {
			t.Errorf("posterior[%s] = %v, naive %v", name, got.Posteriors[name], w)
		}
	}
	// Message-level equivalence: the engine's flat buffers, sliced by the
	// compiled factor offsets, must match the naive per-factor slices.
	prog := e.p
	for fi := range prog.factors {
		lo := prog.foff[fi]
		for pos := range wantF2V[fi] {
			ef := e.factorToVar[lo+int32(pos)]
			ev := e.varToFactor[lo+int32(pos)]
			if math.Abs(ef[0]-wantF2V[fi][pos][0]) > eqTol || math.Abs(ef[1]-wantF2V[fi][pos][1]) > eqTol {
				t.Errorf("factor %d pos %d: factor→var %v, naive %v", fi, pos, ef, wantF2V[fi][pos])
			}
			if math.Abs(ev[0]-wantV2F[fi][pos][0]) > eqTol || math.Abs(ev[1]-wantV2F[fi][pos][1]) > eqTol {
				t.Errorf("factor %d pos %d: var→factor %v, naive %v", fi, pos, ev, wantV2F[fi][pos])
			}
		}
	}
	return got
}

func TestEquivalenceTrees(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := chainTree(n, rng)
		res := assertEngineMatchesNaive(t, g, Options{MaxIterations: 2 * n, Tolerance: 1e-14}, seed)
		// On trees, belief propagation is exact.
		exact, err := g.Exact()
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range exact {
			if got := res.Posteriors[name]; math.Abs(got-want) > eqTol {
				t.Errorf("seed %d: tree posterior[%s] = %v, exact %v", seed, name, got, want)
			}
		}
	}
}

func TestEquivalenceSingleCycles(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 2 + rng.Intn(12)
		g := singleCycle(n, 0.1, rng)
		// A single feedback cycle is a star-shaped tree factor graph
		// (Fig 10): exact after two iterations.
		res := assertEngineMatchesNaive(t, g, Options{MaxIterations: 4, Tolerance: 1e-14}, seed)
		exact, err := g.Exact()
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range exact {
			if got := res.Posteriors[name]; math.Abs(got-want) > eqTol {
				t.Errorf("seed %d: cycle posterior[%s] = %v, exact %v", seed, name, got, want)
			}
		}
	}
}

func TestEquivalenceRandomLoopy(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		g := randomLoopy(4+rng.Intn(8), 3+rng.Intn(5), 4, rng)
		assertEngineMatchesNaive(t, g, Options{MaxIterations: 40, Tolerance: 1e-10}, seed)
	}
}

func TestEquivalenceUnderDamping(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		g := randomLoopy(5+rng.Intn(6), 4, 4, rng)
		assertEngineMatchesNaive(t, g, Options{MaxIterations: 30, Tolerance: 1e-10, Damping: 0.1 + 0.6*rng.Float64()}, seed)
	}
}

func TestEquivalenceUnderMessageLoss(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		g := randomLoopy(5+rng.Intn(6), 4, 4, rng)
		// Both kernels draw delivery decisions from a same-seeded Rng in
		// identical (factor, position) edge order, so lossy runs must agree
		// exactly, not just at the fixed point.
		assertEngineMatchesNaive(t, g, Options{
			MaxIterations: 60,
			Tolerance:     1e-8,
			PSend:         0.2 + 0.6*rng.Float64(),
		}, seed)
	}
}

func TestEquivalenceLossWithDamping(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomLoopy(8, 5, 4, rng)
	assertEngineMatchesNaive(t, g, Options{
		MaxIterations: 80,
		Tolerance:     1e-8,
		Damping:       0.3,
		PSend:         0.5,
	}, 7)
}

// TestParallelMatchesSerial: sharding the sweeps across workers must not
// change a single bit — each variable's and factor's computation is
// independent within a phase.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	g := randomLoopy(40, 30, 5, rng)
	serial, err := g.Run(Options{MaxIterations: 30, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := g.Run(Options{MaxIterations: 30, Tolerance: 1e-12, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Iterations != serial.Iterations || par.Converged != serial.Converged {
			t.Fatalf("parallel=%d: iters=%d conv=%v, serial iters=%d conv=%v",
				workers, par.Iterations, par.Converged, serial.Iterations, serial.Converged)
		}
		for name, want := range serial.Posteriors {
			if got := par.Posteriors[name]; got != want {
				t.Errorf("parallel=%d: posterior[%s] = %v, serial %v", workers, name, got, want)
			}
		}
	}
}

// TestParallelLossyDeterministic: message-loss draws are serialized in edge
// order before each sweep, so lossy parallel runs reproduce lossy serial
// runs for the same seed.
func TestParallelLossyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	g := randomLoopy(30, 20, 4, rng)
	run := func(workers int) Result {
		res, err := g.Run(Options{
			MaxIterations: 50,
			Tolerance:     1e-8,
			PSend:         0.5,
			Rng:           rand.New(rand.NewSource(9)),
			Parallel:      workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	par := run(4)
	if par.Iterations != serial.Iterations {
		t.Fatalf("iterations: parallel %d, serial %d", par.Iterations, serial.Iterations)
	}
	for name, want := range serial.Posteriors {
		if got := par.Posteriors[name]; got != want {
			t.Errorf("posterior[%s] = %v, serial %v", name, got, want)
		}
	}
}

// TestEngineReuse: a long-lived engine re-Run on the same graph reproduces
// a fresh run exactly, and rebinds to the recompiled program when the
// graph grows under it.
func TestEngineReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	g := randomLoopy(10, 6, 4, rng)
	opts := Options{MaxIterations: 30, Tolerance: 1e-10}
	e := NewEngine(g)
	defer e.Close()
	first, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range first.Posteriors {
		if got := second.Posteriors[name]; got != want {
			t.Errorf("reused engine posterior[%s] = %v, first run %v", name, got, want)
		}
	}
	// Grow the graph under the held engine: the next Run must see the new
	// variable and match a fresh engine on the new topology.
	nv := g.MustAddVar("grown")
	g.MustAddFactor(Prior{V: nv, P: 0.85})
	grown, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := grown.Posteriors["grown"]; !ok || math.Abs(got-0.85) > eqTol {
		t.Fatalf("held engine missed grown variable: %v (present=%v)", got, ok)
	}
	fresh, err := NewEngine(g).Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range fresh.Posteriors {
		if got := grown.Posteriors[name]; got != want {
			t.Errorf("grown-graph posterior[%s] = %v, fresh engine %v", name, got, want)
		}
	}
}

// TestCompileCacheInvalidation: growing the graph after a Run must rebuild
// the compiled program, not silently run the stale topology.
func TestCompileCacheInvalidation(t *testing.T) {
	g := New()
	a := g.MustAddVar("a")
	g.MustAddFactor(Prior{V: a, P: 0.9})
	res, err := g.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Posteriors["a"]-0.9) > eqTol {
		t.Fatalf("posterior[a] = %v", res.Posteriors["a"])
	}
	b := g.MustAddVar("b")
	g.MustAddFactor(Prior{V: b, P: 0.5})
	c, err := NewCounting([]*Var{a, b}, []float64{0, 1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddFactor(c)
	res, err = g.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Posteriors["b"]; !ok {
		t.Fatal("stale compiled program: new variable missing from posteriors")
	}
	// The grown graph is a tree, so the rerun must match exact inference.
	exact, err := g.Exact()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range exact {
		if got := res.Posteriors[name]; math.Abs(got-want) > eqTol {
			t.Errorf("posterior[%s] = %v, exact %v", name, got, want)
		}
	}
}

// TestCountingAllMessagesMatchesPerTarget: the shared forward/backward DP
// must reproduce the per-target DP for every position.
func TestCountingAllMessagesMatchesPerTarget(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(800 + seed))
		n := 1 + rng.Intn(10)
		g := New()
		vars := make([]*Var, n)
		incoming := make([]Msg, n)
		for i := range vars {
			vars[i] = g.MustAddVar(fmt.Sprintf("v%d", i))
			incoming[i] = Msg{rng.Float64(), rng.Float64()}
		}
		vals := make([]float64, n+1)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		c, err := NewCounting(vars, vals)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Msg, n)
		var scratch []float64
		scratch = c.AllMessages(incoming, out, scratch)
		_ = scratch
		for pos := 0; pos < n; pos++ {
			want := c.Message(pos, incoming)
			if math.Abs(out[pos][0]-want[0]) > 1e-12 || math.Abs(out[pos][1]-want[1]) > 1e-12 {
				t.Errorf("seed %d n %d pos %d: AllMessages %v, Message %v", seed, n, pos, out[pos], want)
			}
		}
	}
}

// TestTabularAllMessagesMatchesPerTarget covers the Gray-code enumeration,
// including tables with zero entries (the old recursion pruned on zero
// weights; the Gray code must not miss or double-count them).
func TestTabularAllMessagesMatchesPerTarget(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		n := 1 + rng.Intn(6)
		g := New()
		vars := make([]*Var, n)
		incoming := make([]Msg, n)
		for i := range vars {
			vars[i] = g.MustAddVar(fmt.Sprintf("v%d", i))
			incoming[i] = Msg{rng.Float64(), rng.Float64()}
			if rng.Intn(5) == 0 {
				incoming[i][rng.Intn(2)] = 0
			}
		}
		table := make([]float64, 1<<n)
		for i := range table {
			if rng.Intn(3) == 0 {
				continue // keep zero
			}
			table[i] = rng.Float64()
		}
		tab, err := NewTabular(vars, table)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force reference, independent of both implementations.
		states := make([]State, n)
		brute := func(target int) Msg {
			var out Msg
			for bitsv := 0; bitsv < 1<<n; bitsv++ {
				w := 1.0
				for i := 0; i < n; i++ {
					states[i] = State(bitsv >> i & 1)
					if i != target {
						w *= incoming[i][states[i]]
					}
				}
				out[states[target]] += w * tab.Value(states)
			}
			return out
		}
		out := make([]Msg, n)
		tab.AllMessages(incoming, out, nil)
		for pos := 0; pos < n; pos++ {
			want := brute(pos)
			got := tab.Message(pos, incoming)
			if math.Abs(got[0]-want[0]) > 1e-12 || math.Abs(got[1]-want[1]) > 1e-12 {
				t.Errorf("seed %d pos %d: Message %v, brute %v", seed, pos, got, want)
			}
			if math.Abs(out[pos][0]-want[0]) > 1e-12 || math.Abs(out[pos][1]-want[1]) > 1e-12 {
				t.Errorf("seed %d pos %d: AllMessages %v, brute %v", seed, pos, out[pos], want)
			}
		}
	}
}

// TestCountingMessagesExported exercises the standalone kernel entry point
// used by internal/core's peer replicas, including scratch reuse across
// factors of different sizes.
func TestCountingMessagesExported(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scratch []float64
	for _, n := range []int{1, 2, 3, 7, 12, 5} {
		incoming := make([]Msg, n)
		for i := range incoming {
			incoming[i] = Msg{rng.Float64(), rng.Float64()}
		}
		vals := make([]float64, n+1)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		out := make([]Msg, n)
		scratch = CountingMessages(vals, incoming, out, scratch)
		g := New()
		vars := make([]*Var, n)
		for i := range vars {
			vars[i] = g.MustAddVar(fmt.Sprintf("v%d", i))
		}
		c, err := NewCounting(vars, vals)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < n; pos++ {
			want := c.Message(pos, incoming)
			if math.Abs(out[pos][0]-want[0]) > 1e-12 || math.Abs(out[pos][1]-want[1]) > 1e-12 {
				t.Errorf("n %d pos %d: CountingMessages %v, Message %v", n, pos, out[pos], want)
			}
		}
	}
}
