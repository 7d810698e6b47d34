package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eon"
	"repro/internal/eval"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/sim"
)

// All is the reproduction, in the order pdmsbench -fig all prints it. Every
// parameter of every row is fixed here: what is printed is what the tests
// check and what REPRODUCTION.json pins.
var All = []Experiment{
	{
		ID:    "intro",
		Title: "§4.5 — introductory example (no priors, Δ=0.1)",
		Claim: "paper: posteriors 0.59 (m23) and 0.3 (m24); priors update to 0.55 and 0.4.",
		Run:   intro,
	},
	{
		ID:    "7",
		Title: "Figure 7 — convergence of the iterative message passing algorithm (priors 0.7, Δ=0.1, tolerance 1e-3)",
		Claim: "paper: the posteriors converge in about ten iterations, the faulty m24 lowest.",
		Plot:  []string{"iteration", "m12", "m23", "m24", "m34", "m41"},
		Run:   fig7,
	},
	{
		ID:    "9",
		Title: "Figure 9 — error of iterative message passing vs exact inference (priors 0.8, Δ=0.1, 10 iterations, 0–6 peers inserted into m12)",
		Claim: "paper: the error stays below 6%, largest for the shortest cycles.",
		Plot:  []string{"longest cycle", "mean error (%)"},
		Run:   fig9,
	},
	{
		ID:    "10",
		Title: "Figure 10 — impact of the cycle length on the posterior (one positive cycle of 2–20 mappings, priors 0.5)",
		Claim: "paper: cycles longer than ~10 mappings provide almost no evidence, and a larger Δ erodes it faster.",
		Plot:  []string{"cycle length", "Δ=0.20", "Δ=0.10", "Δ=0.01"},
		Run:   fig10,
	},
	{
		ID:    "11",
		Title: "Figure 11 — robustness against faulty links (priors 0.8, Δ=0.1, tolerance 1e-8, 5 seeds)",
		Claim: "paper: the method always converges, even with 90% of messages lost, to the same fixed point.",
		Plot:  []string{"P(send)", "rounds"},
		Run:   fig11,
	},
	{
		ID:    "12",
		Title: "Figure 12 — precision on automatically aligned bibliographic ontologies (priors 0.5; paper: 396 correspondences, 86 erroneous)",
		Claim: "paper: precision ≥80% at low θ, declining with θ; phase transition near θ=0.6.",
		Plot:  []string{"θ", "precision", "recall"},
		Run:   fig12,
	},
	{
		ID:    "overhead",
		Title: "§4.3.1 — communication overhead of the periodic schedule (Fig 5 network, 4 rounds)",
		Claim: "paper: a period costs at most Σ l(l−1) remote messages over the structures of length l.",
		Run:   overhead,
	},
	{
		ID:    "topology",
		Title: "§3.2.1 — semantic overlay topology statistics (150 peers, attachment 3, seed 5)",
		Claim: "paper: semantic overlays are scale-free and unusually clustered (SRS: 0.54).",
		Run:   topology,
	},
	{
		ID:    "scale",
		Title: "extension (§7) — detection on generated scale-free PDMS overlays (15% of mappings swap a0/a1, cycles ≤4, θ=0.5, seed 11)",
		Claim: "extension: precision stays above the corruption base rate and at least half the covered faulty mappings are found.",
		Run:   scale,
	},
	{
		ID:    "granularity",
		Title: "ablation (§4.1) — fine vs coarse granularity (40 peers, 15% of mappings wholly corrupted, 4 analysis attributes, cycles ≤4, seed 9)",
		Claim: "extension: one variable per mapping decides as well as one per attribute, at a quarter of the state.",
		Run:   granularity,
	},
	{
		ID:    "paths",
		Title: "ablation (§3.3) — the introductory example with and without parallel-path evidence",
		Claim: "extension: the parallel paths add evidence, lower the faulty posterior and widen its separation from the sound mappings.",
		Run:   parallelPaths,
	},
	{
		ID:    "schedules",
		Title: "§4.3 — the three message passing schedules on the introductory network (lazy: 4000 seeded queries; async: 100 ticks)",
		Claim: "paper: periodic, lazy and asynchronous message passing all detect m24; lazy sends no dedicated message.",
		Run:   schedules,
	},
	{
		ID:    "priors",
		Title: "§4.4 — prior learning across 6 detect-and-commit epochs on the introductory network",
		Claim: "paper: the EM update drifts the sound mapping's prior up and the faulty one's down, epoch after epoch.",
		Run:   priors,
	},
	{
		ID:    "churn",
		Title: "extension (§7) — maintenance after churn: the faulty m24 is replaced by a correct mapping",
		Claim: "extension: the stale posterior keeps blocking the corrected link until evidence is re-gathered.",
		Run:   churn,
	},
	{
		ID:    "timeline",
		Title: "churn timeline — generated scenario, incremental re-detection per epoch (60 peers, 6 epochs of 5 events, seed 17)",
		Claim: "extension: corrupted mappings stay ranked below clean ones through churn, and no invariant is violated (see TESTING.md).",
		Run:   timeline,
	},
	{
		ID:    "feedback",
		Title: "feedback — posterior error vs queries served and fed back (100-peer churny overlay, 5 epochs × 2000 queries, 10% verdict noise, seed 7)",
		Claim: "extension: the error falls as served traffic accumulates — the network learns from its own queries.",
		Plot:  []string{"queries", "err after"},
		Run:   feedbackLoop,
	},
}

// example is the evidence the rows on internal/paper's example networks
// gather: Creator, over structures of up to six mappings, at the paper's Δ.
var example = core.DiscoverConfig{Attrs: []schema.Attribute{paper.Creator}, MaxLen: 6, Delta: paper.Delta}

// detect discovers cfg's evidence on n and runs the periodic schedule once.
func detect(n *core.Network, cfg core.DiscoverConfig, opts core.DetectOptions) (core.DiscoveryReport, core.DetectResult, error) {
	rep, err := n.Discover(cfg)
	if err != nil {
		return rep, core.DetectResult{}, err
	}
	res, err := n.RunDetection(opts)
	return rep, res, err
}

// intro commits the posteriors into the priors once (§4.4) after detecting.
func intro() (Table, error) {
	n := paper.IntroNetwork()
	rep, res, err := detect(n, example, core.DetectOptions{MaxRounds: 200, Tolerance: 1e-9})
	if err != nil {
		return Table{}, err
	}
	n.CommitPriors(res, 0.5)
	t := Table{Columns: []string{"mapping", "posterior", "prior after EM update", "rounds", "positive evidence", "negative evidence"}}
	for _, m := range []graph.EdgeID{"m12", "m23", "m34", "m41", "m24"} {
		owner, ok := n.Owner(m)
		if !ok {
			return Table{}, fmt.Errorf("experiments: mapping %s has no owner", m)
		}
		t.Rows = append(t.Rows, []any{
			string(m), res.Posterior(m, paper.Creator, -1), owner.PriorFor(m, paper.Creator, 0.5),
			res.Rounds, rep.Positive, rep.Negative,
		})
	}
	return t, nil
}

// fig7 traces the posterior of every mapping of the undirected example
// factor graph of Fig 4 (feedback f1+, f2−, f3−) across iterations.
func fig7() (Table, error) {
	t := Table{Columns: []string{"iteration", "m12", "m23", "m24", "m34", "m41"}}
	tr := eval.NewTrace(t.Columns[1:]...)
	_, _, err := detect(paper.Fig4Network(), example, core.DetectOptions{
		DefaultPrior: 0.7,
		MaxRounds:    40,
		Tolerance:    1e-3,
		Trace: func(round int, post map[graph.EdgeID]map[schema.Attribute]float64) {
			vals := make(map[string]float64, len(post))
			for m, attrs := range post {
				vals[string(m)] = attrs[paper.Creator]
			}
			tr.Record(round, vals)
		},
	})
	if err != nil {
		return Table{}, err
	}
	series := tr.Series()
	for i := 0; i < tr.Len(); i++ {
		row := []any{int(series[0].X[i])}
		for _, s := range series {
			row = append(row, s.Y[i])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig9 compares the decentralized iterative scheme against exact global
// inference over the same evidence while the example graph's cycles grow
// (Fig 8).
func fig9() (Table, error) {
	t := Table{Columns: []string{"extra peers", "longest cycle", "mean error (%)"}}
	for extra := 0; extra <= 6; extra++ {
		n, err := paper.GrowingCycleNetwork(extra)
		if err != nil {
			return Table{}, err
		}
		maxLen := 4 + extra
		_, res, err := detect(n, core.DiscoverConfig{Attrs: example.Attrs, MaxLen: maxLen, Delta: paper.Delta},
			core.DetectOptions{DefaultPrior: 0.8, MaxRounds: 10, Tolerance: 1e-300})
		if err != nil {
			return Table{}, err
		}
		an, err := feedback.Analyze(paper.Creator, n.Topology(), n.Resolver(), maxLen)
		if err != nil {
			return Table{}, err
		}
		fg, err := feedback.BuildFactorGraph(an, func(graph.EdgeID) float64 { return 0.8 }, paper.Delta)
		if err != nil {
			return Table{}, err
		}
		exact, err := fg.Exact()
		if err != nil {
			return Table{}, err
		}
		got := make(map[string]float64, len(exact))
		for name := range exact {
			got[name] = res.Posterior(graph.EdgeID(name), paper.Creator, 0.8)
		}
		t.Rows = append(t.Rows, []any{extra, maxLen, 100 * eval.MeanAbsError(got, exact)})
	}
	return t, nil
}

// fig10 measures how much evidence a single positive cycle provides as it
// grows, for three values of Δ. Two iterations suffice: the factor graph is
// a tree, so the result is exact.
func fig10() (Table, error) {
	deltas := []float64{0.2, 0.1, 0.01}
	t := Table{Columns: []string{"cycle length"}}
	for _, d := range deltas {
		t.Columns = append(t.Columns, fmt.Sprintf("Δ=%.2f", d))
	}
	for l := 2; l <= 20; l++ {
		row := []any{l}
		for _, d := range deltas {
			n, err := paper.RingNetwork(l, paper.NumAttrs)
			if err != nil {
				return Table{}, err
			}
			_, res, err := detect(n, core.DiscoverConfig{Attrs: []schema.Attribute{"a0"}, MaxLen: l, Delta: d},
				core.DetectOptions{DefaultPrior: 0.5, MaxRounds: 2, Tolerance: 1e-300})
			if err != nil {
				return Table{}, err
			}
			row = append(row, res.Posterior("m0", "a0", -1))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig11 sweeps the probability of sending each remote message on the
// example network. The drift column is the largest |posterior − reliable
// posterior| across mappings and seeds: message loss must not move the
// fixed point.
func fig11() (Table, error) {
	const seeds = 5
	run := func(psend float64, seed int64) (core.DetectResult, error) {
		_, res, err := detect(paper.IntroNetwork(), example, core.DetectOptions{
			DefaultPrior: 0.8,
			MaxRounds:    20000,
			Tolerance:    1e-8,
			PSend:        psend,
			Seed:         seed,
		})
		return res, err
	}
	reliable, err := run(1, 0)
	if err != nil {
		return Table{}, err
	}
	t := Table{Columns: []string{"P(send)", "rounds", "converged", "fixed-point drift"}}
	for _, ps := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1} {
		rounds, converged, drift := 0, true, 0.0
		for s := 0; s < seeds; s++ {
			res, err := run(ps, int64(1000+s))
			if err != nil {
				return Table{}, err
			}
			rounds += res.Rounds
			converged = converged && res.Converged
			for m, attrs := range res.Posteriors {
				for a, p := range attrs {
					drift = math.Max(drift, math.Abs(p-reliable.Posterior(m, a, 0.5)))
				}
			}
		}
		t.Rows = append(t.Rows, []any{ps, float64(rounds) / seeds, converged, drift})
	}
	return t, nil
}

// fig12 runs §5.2 under eon's calibrated default configuration.
func fig12() (Table, error) {
	ex, err := eon.Build(eon.DefaultConfig())
	if err != nil {
		return Table{}, err
	}
	if _, err := ex.Run(); err != nil {
		return Table{}, err
	}
	thetas := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	t := Table{Columns: []string{"θ", "detected", "precision", "recall", "correspondences", "erroneous"}}
	for _, p := range eval.PrecisionCurve(ex.Judgments(), thetas) {
		t.Rows = append(t.Rows, []any{p.Theta, p.Detected, p.Precision, p.Recall, len(ex.Correspondences), ex.Faulty()})
	}
	return t, nil
}

func overhead() (Table, error) {
	rep, res, err := detect(paper.Fig5Network(), example, core.DetectOptions{MaxRounds: 4, Tolerance: 1e-300})
	if err != nil {
		return Table{}, err
	}
	// Fig 5, one attribute: cycles of length 2, 4, 3; pairs of length 3,
	// 3, 4 (f1, f2, the m12/m21 2-cycle, f3⇒, f4⇒, f5⇒).
	lengths := []int{2, 4, 3, 3, 3, 4}
	if rep.Structures != len(lengths) {
		return Table{}, fmt.Errorf("experiments: Fig 5 network has %d structures, the bound sums %d", rep.Structures, len(lengths))
	}
	bound := 0
	for _, l := range lengths {
		bound += l * (l - 1)
	}
	per := res.RemoteMessages / res.Rounds
	return Table{
		Columns: []string{"network", "structures", "remote msgs/round", "bound Σ l(l−1)", "within bound"},
		Rows:    [][]any{{"fig5", rep.Structures, per, bound, per <= bound}},
	}, nil
}

// topology compares three overlay models of the same size and density: a
// Watts–Strogatz small-world lattice (the regime matching the SRS schema
// network's clustering of 0.54), a preferential-attachment scale-free
// overlay, and an Erdős–Rényi baseline.
func topology() (Table, error) {
	const n, seed = 150, 5
	newRand := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	ba, err := graph.BarabasiAlbert(n, 3, false, newRand(seed))
	if err != nil {
		return Table{}, err
	}
	// Match the edge count with an ER graph of the same density.
	p := float64(2*ba.NumEdges()) / float64(n*(n-1))
	er, err := graph.ErdosRenyi(n, p, false, newRand(seed+1))
	if err != nil {
		return Table{}, err
	}
	// Small-world lattice with comparable degree (k ≈ average degree,
	// rounded up to even) and 10% rewiring.
	k := int(ba.AverageDegree())
	k += k % 2
	ws, err := graph.WattsStrogatz(n, max(k, 2), 0.1, newRand(seed+2))
	if err != nil {
		return Table{}, err
	}
	t := Table{Columns: []string{"generator", "peers", "edges", "clustering", "max degree", "avg degree", "cycles ≤5"}}
	for _, g := range []struct {
		kind string
		*graph.Graph
	}{{"watts-strogatz", ws}, {"barabasi-albert", ba}, {"erdos-renyi", er}} {
		maxDeg := 0
		for d := range g.DegreeDistribution() {
			maxDeg = max(maxDeg, d)
		}
		t.Rows = append(t.Rows, []any{
			g.kind, g.NumPeers(), g.NumEdges(), g.ClusteringCoefficient(), maxDeg, g.AverageDegree(), len(g.Cycles(5)),
		})
	}
	return t, nil
}

// syntheticPDMS builds an undirected scale-free PDMS of n peers over the
// shared a0 … a10 schema, with identity mappings of which 15% are made
// erroneous. wholeMapping selects the corruption model: a cyclic shift of
// every attribute (the whole mapping is wrong) versus a swap of a0/a1 only
// (a per-attribute error). Returns the network, the set of corrupted mapping
// IDs and the schema's attributes.
func syntheticPDMS(n int, wholeMapping bool, seed int64) (*core.Network, map[graph.EdgeID]bool, []schema.Attribute, error) {
	rng := rand.New(rand.NewSource(seed))
	topo, err := graph.BarabasiAlbert(n, 2, false, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	attrs := make([]schema.Attribute, paper.NumAttrs)
	for i := range attrs {
		attrs[i] = schema.Attribute(fmt.Sprintf("a%d", i))
	}
	net := core.NewNetwork(false)
	for _, p := range topo.Peers() {
		net.MustAddPeer(p, schema.MustNew("S_"+string(p), attrs...))
	}
	identity := make(map[schema.Attribute]schema.Attribute, len(attrs))
	wrong := make(map[schema.Attribute]schema.Attribute, len(attrs))
	for i, a := range attrs {
		identity[a] = a
		wrong[a] = a
		if wholeMapping {
			wrong[a] = attrs[(i+1)%len(attrs)]
		}
	}
	if !wholeMapping {
		wrong[attrs[0]], wrong[attrs[1]] = attrs[1], attrs[0]
	}
	faulty := make(map[graph.EdgeID]bool)
	for _, e := range topo.Edges() {
		pairs := identity
		if rng.Float64() < 0.15 {
			faulty[e.ID] = true
			pairs = wrong
		}
		if _, err := net.AddMapping(e.ID, e.From, e.To, pairs); err != nil {
			return nil, nil, nil, err
		}
	}
	return net, faulty, attrs, nil
}

// scale runs erroneous-mapping detection on generated scale-free PDMS
// overlays of growing size (§7: "testing our heuristics on larger
// automatically-generated PDMS settings"), analyzing the corrupted
// attribute a0. Covered counts the mappings that take part in at least one
// evidence structure (only they can be judged); precision and recall are
// over those.
func scale() (Table, error) {
	t := Table{Columns: []string{"peers", "mappings", "faulty", "covered", "evidence", "precision", "recall", "rounds"}}
	for _, size := range []int{30, 60, 120} {
		net, faulty, _, err := syntheticPDMS(size, false, 11)
		if err != nil {
			return Table{}, err
		}
		rep, res, err := detect(net, core.DiscoverConfig{Attrs: []schema.Attribute{"a0"}, MaxLen: 4},
			core.DetectOptions{MaxRounds: 50, Tolerance: 1e-6})
		if err != nil {
			return Table{}, err
		}
		var items []eval.Judgment
		for m, attrs := range res.Posteriors {
			if p, ok := attrs["a0"]; ok {
				items = append(items, eval.Judgment{Posterior: p, Faulty: faulty[m]})
			}
		}
		at := eval.PrecisionCurve(items, []float64{0.5})[0]
		t.Rows = append(t.Rows, []any{
			net.NumPeers(), net.Topology().NumEdges(), len(faulty), len(items),
			rep.Positive + rep.Negative, at.Precision, at.Recall, res.Rounds,
		})
	}
	return t, nil
}

// granularity corrupts whole mappings (every attribute wrong) on a
// generated overlay and compares fine-grained detection (§4.1, one variable
// per attribute, the mapping judged by the mean of its per-attribute
// posteriors) against coarse-grained detection (one variable per mapping
// fed by every attribute's evidence).
func granularity() (Table, error) {
	t := Table{Columns: []string{"granularity", "variables", "precision", "recall"}}
	for _, arm := range []struct {
		name string
		g    core.Granularity
	}{{"fine", core.FineGrained}, {"coarse", core.CoarseGrained}} {
		net, faulty, attrs, err := syntheticPDMS(40, true, 9)
		if err != nil {
			return Table{}, err
		}
		// A mapping's variables in a fixed order, so that their mean is the
		// same float on every run: the four analysis attributes when
		// fine-grained, the one coarse key otherwise.
		vars := append(attrs[:4:4], core.CoarseKey())
		_, res, err := detect(net, core.DiscoverConfig{Attrs: attrs[:4], MaxLen: 4, Granularity: arm.g},
			core.DetectOptions{MaxRounds: 50, Tolerance: 1e-6})
		if err != nil {
			return Table{}, err
		}
		variables := 0
		var items []eval.Judgment
		for m, attrVals := range res.Posteriors {
			sum, cnt := 0.0, 0
			for _, a := range vars {
				if v, ok := attrVals[a]; ok {
					sum += v
					cnt++
				}
			}
			if cnt == 0 {
				continue
			}
			variables += len(attrVals)
			items = append(items, eval.Judgment{Posterior: sum / float64(cnt), Faulty: faulty[m]})
		}
		at := eval.PrecisionCurve(items, []float64{0.5})[0]
		t.Rows = append(t.Rows, []any{arm.name, variables, at.Precision, at.Recall})
	}
	return t, nil
}

// parallelPaths runs the introductory example with and without
// parallel-path evidence. Without f3⇒ the remaining cycle evidence is
// weaker — quantifying what §3.3 adds over pure cycle analysis.
func parallelPaths() (Table, error) {
	t := Table{Columns: []string{"evidence set", "observations", "faulty posterior", "separation"}}
	for _, arm := range []struct {
		name    string
		disable bool
	}{{"cycles+parallel", false}, {"cycles only", true}} {
		cfg := example
		cfg.DisableParallelPaths = arm.disable
		rep, res, err := detect(paper.IntroNetwork(), cfg, core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
		if err != nil {
			return Table{}, err
		}
		bad := res.Posterior("m24", paper.Creator, 0.5)
		t.Rows = append(t.Rows, []any{arm.name, rep.Positive + rep.Negative, bad, res.Posterior("m23", paper.Creator, 0.5) - bad})
	}
	return t, nil
}

// schedules runs the three schedules of §4.3 on the introductory example
// and reports their communication profile and final belief about the faulty
// mapping. The asynchronous bus delivers in scheduler order, and its
// posterior is a fixed point only within SendTolerance: those two cells are
// Unpinned.
func schedules() (Table, error) {
	t := Table{Columns: []string{"schedule", "dedicated msgs", "piggybacked", "converged", "m24 posterior"}}

	_, periodic, err := detect(paper.IntroNetwork(), example, core.DetectOptions{MaxRounds: 300, Tolerance: 1e-8})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []any{"periodic", periodic.RemoteMessages, 0, periodic.Converged, periodic.Posterior("m24", paper.Creator, -1)})

	n := paper.IntroNetwork()
	if _, err := n.Discover(example); err != nil {
		return Table{}, err
	}
	rng := rand.New(rand.NewSource(3))
	peers := n.Peers()
	workload := make([]core.LazyQuery, 4000)
	for i := range workload {
		p := peers[rng.Intn(len(peers))]
		workload[i] = core.LazyQuery{
			Origin: p.ID(),
			Query:  query.MustNew(p.Schema(), query.Op{Kind: query.Project, Attr: paper.Creator}),
		}
	}
	lazy, err := n.RunLazy(workload, core.LazyOptions{Tolerance: 1e-8})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []any{"lazy", 0, lazy.Piggybacked, lazy.Converged, core.AttrPosterior(lazy.Posteriors, "m24", paper.Creator, -1)})

	n = paper.IntroNetwork()
	if _, err := n.Discover(example); err != nil {
		return Table{}, err
	}
	async, err := n.RunDetectionAsync(core.AsyncOptions{Ticks: 100})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []any{"async", Unpinned{async.RemoteMessages}, 0, async.Converged, Unpinned{async.Posterior("m24", paper.Creator, -1)}})
	return t, nil
}

// priors runs repeated detect-then-commit epochs on the introductory
// network: the EM update (§4.4) accumulates posterior evidence into the
// priors, so later detections start from a more informed state. The prior
// columns are the priors entering the epoch.
func priors() (Table, error) {
	n := paper.IntroNetwork()
	if _, err := n.Discover(example); err != nil {
		return Table{}, err
	}
	p2, ok := n.Peer("p2")
	if !ok {
		return Table{}, fmt.Errorf("experiments: p2 missing")
	}
	t := Table{Columns: []string{"epoch", "prior m23", "prior m24", "posterior m23", "posterior m24"}}
	for e := 1; e <= 6; e++ {
		good, bad := p2.PriorFor("m23", paper.Creator, 0.5), p2.PriorFor("m24", paper.Creator, 0.5)
		res, err := n.RunDetection(core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []any{e, good, bad, res.Posterior("m23", paper.Creator, 0.5), res.Posterior("m24", paper.Creator, 0.5)})
		n.CommitPriors(res, 0.5)
	}
	return t, nil
}

// churn measures the maintenance trade-off of §7: a detection result ages
// as the network evolves. The owner of the faulty m24 replaces it with a
// corrected mapping; the stale belief is contrasted with the re-discovered
// one.
func churn() (Table, error) {
	opts := core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9}
	n := paper.IntroNetwork()
	rep, res, err := detect(n, example, opts)
	if err != nil {
		return Table{}, err
	}
	t := Table{Columns: []string{"belief about m24", "positive evidence", "posterior"}}
	t.Rows = append(t.Rows, []any{"stale (before rediscovery)", rep.Positive, res.Posterior("m24", paper.Creator, -1)})

	n.RemoveMapping("m24")
	p2, ok := n.Peer("p2")
	if !ok {
		return Table{}, fmt.Errorf("experiments: p2 missing")
	}
	if _, err := n.AddMapping("m24", "p2", "p4", core.IdentityPairs(p2.Schema())); err != nil {
		return Table{}, err
	}
	if rep, res, err = detect(n, example, opts); err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []any{"fresh (after rediscovery)", rep.Positive, res.Posterior("m24", paper.Creator, -1)})
	return t, nil
}

// timeline generates a seeded churn scenario — peers joining and leaving,
// mappings added, removed, corrupted and repaired every epoch — and replays
// it with incremental re-detection and the scratch differential
// (Verify). It drives the same engine as cmd/pdmssim. Evidence is the
// number of non-neutral observations (re)installed in the epoch: full
// discovery on the first, incremental afterwards.
func timeline() (Table, error) {
	sc, err := sim.Generate(sim.GenConfig{Seed: 17, Peers: 60, Epochs: 6, Events: 5, Queries: 10, Verify: true})
	if err != nil {
		return Table{}, err
	}
	s, err := sim.New(sc)
	if err != nil {
		return Table{}, err
	}
	res, err := s.Run()
	if err != nil {
		return Table{}, err
	}
	t := Table{Columns: []string{"epoch", "peers", "mappings", "corrupted", "evidence", "rounds", "clean post", "corrupt post", "violations"}}
	for _, e := range res.Epochs {
		t.Rows = append(t.Rows, []any{
			e.Epoch, e.Peers, e.Mappings, e.Corrupted, e.Discovery.Positive + e.Discovery.Negative,
			e.Detection.Rounds, e.MeanClean, e.MeanCorrupt, len(e.Violations),
		})
	}
	return t, nil
}

// feedbackLoop runs the closed loop end to end: each epoch churns a
// generated overlay, detects, publishes and serves 2000 queries from four
// concurrent clients; every answer path is judged by the ground-truth
// oracle (10% of verdicts flipped), the observations are ingested as
// evidence and a bounded incremental re-detection republishes the snapshot.
// The err columns are the mean absolute posterior error against the
// corruption ground truth before and after that re-detection.
func feedbackLoop() (Table, error) {
	sc, err := sim.Generate(sim.GenConfig{Seed: 7, Peers: 100, Epochs: 5})
	if err != nil {
		return Table{}, err
	}
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0 // the workload serves the queries
	}
	s, err := sim.New(sc)
	if err != nil {
		return Table{}, err
	}
	res, _, err := s.RunWorkload(sim.Workload{Clients: 4, QueriesPerEpoch: 2000, Feedback: true, FeedbackNoise: 0.1}, nil)
	if err != nil {
		return Table{}, err
	}
	t := Table{Columns: []string{"epoch", "queries", "observations", "new factors", "bumped factors", "touched vars", "incr rounds", "err before", "err after"}}
	served := 0
	for _, ep := range res.Epochs {
		ft := ep.Feedback
		if ft == nil {
			return Table{}, fmt.Errorf("experiments: epoch %d has no feedback trace", ep.Epoch)
		}
		served += ep.Served
		t.Rows = append(t.Rows, []any{ep.Epoch, served, ft.Observations, ft.NewFactors, ft.Bumped, ft.TouchedVars, ft.Rounds, ft.ErrBefore, ft.ErrAfter})
	}
	return t, nil
}
