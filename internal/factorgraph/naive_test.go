package factorgraph

import "math"

// This file preserves the original map-and-slice belief-propagation engine
// exactly as it was before the compiled kernel (engine.go) replaced it. It
// exists only as a reference: the equivalence test suite pins the optimized
// kernel's messages and posteriors to it, and BenchmarkEngineSweep measures
// the speedup against it. It is deliberately untouched by optimization
// work.

type adj struct {
	factor int
	pos    int
}

// runNaive executes synchronous loopy belief propagation with the
// pre-refactor per-call allocations: map adjacency, per-factor message
// slices, and O(deg²) leave-one-out products. Message-loss draws consume
// opts.Rng in the same (factor, position) edge order as the compiled
// kernel, so seeded lossy runs are comparable.
func (g *Graph) runNaive(opts Options) (Result, error) {
	res, _, _, err := g.runNaiveCapture(opts)
	return res, err
}

// runNaiveCapture is runNaive, additionally returning the final
// factor→variable and variable→factor messages (indexed [factor][pos]) so
// the equivalence suite can pin the compiled kernel's message state, not
// just its posteriors, to the reference implementation.
func (g *Graph) runNaiveCapture(opts Options) (Result, [][]Msg, [][]Msg, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return Result{}, nil, nil, err
	}
	varFactors := make(map[int][]adj)
	for fi, f := range g.factors {
		for pos, v := range f.Vars() {
			varFactors[v.idx] = append(varFactors[v.idx], adj{factor: fi, pos: pos})
		}
	}
	// factorToVar[f][pos] and varToFactor[f][pos] live on the factor side,
	// indexed identically.
	factorToVar := make([][]Msg, len(g.factors))
	varToFactor := make([][]Msg, len(g.factors))
	for fi, f := range g.factors {
		n := len(f.Vars())
		factorToVar[fi] = make([]Msg, n)
		varToFactor[fi] = make([]Msg, n)
		for i := 0; i < n; i++ {
			if n == 1 {
				factorToVar[fi][i] = f.Message(i, varToFactor[fi]).Normalized()
			} else {
				factorToVar[fi][i] = Unit()
			}
			varToFactor[fi][i] = Unit()
		}
	}

	posterior := func(vi int) Msg {
		b := Unit()
		for _, a := range varFactors[vi] {
			b = b.Mul(factorToVar[a.factor][a.pos])
		}
		return b.Normalized()
	}

	prev := make([]float64, len(g.vars))
	for vi := range g.vars {
		prev[vi] = posterior(vi)[Correct]
	}

	traceBuf := make(map[string]float64, len(g.vars))
	res := Result{}
	stable := 0
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		// Variable → factor.
		for fi, f := range g.factors {
			for pos, v := range f.Vars() {
				out := Unit()
				for _, a := range varFactors[v.idx] {
					if a.factor == fi && a.pos == pos {
						continue
					}
					out = out.Mul(factorToVar[a.factor][a.pos])
				}
				out = out.Normalized()
				if opts.lossy() && opts.Rng.Float64() >= opts.PSend {
					continue // message lost; stale value remains
				}
				varToFactor[fi][pos] = out
			}
		}
		// Factor → variable.
		for fi, f := range g.factors {
			for pos := range f.Vars() {
				out := f.Message(pos, varToFactor[fi]).Normalized()
				if opts.Damping > 0 {
					old := factorToVar[fi][pos]
					out = Msg{
						(1-opts.Damping)*out[0] + opts.Damping*old[0],
						(1-opts.Damping)*out[1] + opts.Damping*old[1],
					}
				}
				factorToVar[fi][pos] = out
			}
		}
		res.Iterations = iter

		maxDelta := 0.0
		for vi := range g.vars {
			p := posterior(vi)[Correct]
			if d := math.Abs(p - prev[vi]); d > maxDelta {
				maxDelta = d
			}
			prev[vi] = p
		}
		if opts.Trace != nil {
			for vi, v := range g.vars {
				traceBuf[v.Name] = prev[vi]
			}
			opts.Trace(iter, traceBuf)
		}
		if maxDelta < opts.Tolerance {
			stable++
			if stable >= opts.StableIterations {
				res.Converged = true
				break
			}
		} else {
			stable = 0
		}
	}

	res.Posteriors = make(map[string]float64, len(g.vars))
	for vi, v := range g.vars {
		res.Posteriors[v.Name] = prev[vi]
	}
	return res, factorToVar, varToFactor, nil
}
