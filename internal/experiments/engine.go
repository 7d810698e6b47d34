package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/factorgraph"
)

// This file measures the compiled belief-propagation kernel itself — the
// engine every schedule (periodic, lazy, async) and every figure
// reproduction ultimately spins — on synthetic inference workloads far
// beyond the paper's 8-peer examples, toward the ROADMAP's
// million-variable regime. Its one caller is the kernel rung of the
// benchmark (bench/probes.go, factorgraph.sweep_updates_per_s).

// EngineScalePoint is one measurement of the compiled kernel.
type EngineScalePoint struct {
	Vars    int
	Factors int
	Edges   int
	Workers int // sweep goroutines (1 = serial)
	// SweepMicros is the mean wall time of one synchronous iteration
	// (every edge carries one message in each direction).
	SweepMicros float64
	// EdgesPerSec is the resulting message-update throughput, counting both
	// directions.
	EdgesPerSec float64
}

// engineScaleGraph builds the benchmark topology: a prior per variable
// plus 2·n counting factors of the given arity over random distinct
// variables — the dense many-cycles-per-mapping regime that §3.2.1 argues
// semantic overlays occupy.
func engineScaleGraph(nVars, arity int, rng *rand.Rand) (*factorgraph.Graph, error) {
	if arity > nVars {
		return nil, fmt.Errorf("experiments: arity %d exceeds %d variables", arity, nVars)
	}
	g := factorgraph.New()
	vars := make([]*factorgraph.Var, nVars)
	for i := range vars {
		vars[i] = g.MustAddVar(fmt.Sprintf("m%d", i))
		g.MustAddFactor(factorgraph.Prior{V: vars[i], P: 0.05 + 0.9*rng.Float64()})
	}
	// Partial Fisher–Yates over one reused index slice: drawing arity
	// distinct variables costs O(arity) per factor, not a full O(nVars)
	// permutation (which would dominate setup at the 8000-var points).
	idx := make([]int, nVars)
	for i := range idx {
		idx[i] = i
	}
	for k := 0; k < 2*nVars; k++ {
		sub := make([]*factorgraph.Var, arity)
		for i := 0; i < arity; i++ {
			j := i + rng.Intn(nVars-i)
			idx[i], idx[j] = idx[j], idx[i]
			sub[i] = vars[idx[i]]
		}
		vals := make([]float64, arity+1)
		vals[0] = 1
		for i := 2; i <= arity; i++ {
			vals[i] = 0.1
		}
		c, err := factorgraph.NewCounting(sub, vals)
		if err != nil {
			return nil, err
		}
		g.MustAddFactor(c)
	}
	return g, nil
}

// EngineScale times steady-state sweeps of the compiled kernel on random
// loopy graphs of the given sizes, for each worker count (1 = serial; >1
// shards the sweeps across a goroutine pool). sweeps is the number of
// timed iterations per point (a warm-up sweep is run first so scratch
// buffers settle and the loop is allocation-free).
func EngineScale(sizes []int, arity int, workers []int, sweeps int, seed int64) ([]EngineScalePoint, error) {
	if sweeps <= 0 {
		sweeps = 20
	}
	var out []EngineScalePoint
	for _, n := range sizes {
		g, err := engineScaleGraph(n, arity, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		edges := n + 2*n*arity
		for _, w := range workers {
			e := factorgraph.NewEngine(g)
			if err := e.Init(factorgraph.Options{Tolerance: 1e-300, Parallel: w}); err != nil {
				e.Close()
				return nil, err
			}
			e.Sweep() // warm-up
			start := time.Now()
			for i := 0; i < sweeps; i++ {
				e.Sweep()
			}
			elapsed := time.Since(start)
			e.Close()
			per := elapsed.Seconds() / float64(sweeps)
			out = append(out, EngineScalePoint{
				Vars:        n,
				Factors:     g.NumFactors(),
				Edges:       edges,
				Workers:     w,
				SweepMicros: per * 1e6,
				EdgesPerSec: 2 * float64(edges) / per,
			})
		}
	}
	return out, nil
}
