// Command pdmsbench regenerates every experiment of the paper's evaluation
// section and prints the corresponding table and ASCII figure.
//
// Usage:
//
//	pdmsbench -fig 7         # convergence of iterative message passing
//	pdmsbench -fig 9         # relative error vs exact inference
//	pdmsbench -fig 10        # impact of the cycle length
//	pdmsbench -fig 11        # robustness against lost messages
//	pdmsbench -fig 12        # precision on the bibliographic ontologies
//	pdmsbench -fig intro     # §4.5 introductory example walkthrough
//	pdmsbench -fig overhead  # §4.3.1 communication bound
//	pdmsbench -fig topology  # §3.2.1 semantic overlay statistics
//	pdmsbench -fig scale     # detection on generated scale-free overlays
//	pdmsbench -fig ablation  # §4.1 granularity and §3.3 parallel paths
//	pdmsbench -fig schedules # §4.3 periodic / lazy / async schedules
//	pdmsbench -fig priors    # §4.4 prior learning across epochs
//	pdmsbench -fig churn     # maintenance after churn
//	pdmsbench -fig feedback  # posterior error vs queries served-and-fed-back
//	pdmsbench -fig all       # everything
//
// Performance is measured by bench/ (see BENCHMARK.json and PERFORMANCE.md),
// not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdmsbench: ")
	fig := flag.String("fig", "all", "experiment to run: 7, 9, 10, 11, 12, intro, overhead, topology, scale, ablation, schedules, priors, churn, feedback, all")
	flag.Parse()

	runners := map[string]func() error{
		"7":         fig7,
		"9":         fig9,
		"10":        fig10,
		"11":        fig11,
		"12":        fig12,
		"intro":     intro,
		"overhead":  overhead,
		"topology":  topology,
		"scale":     scale,
		"ablation":  ablation,
		"schedules": schedules,
		"priors":    priors,
		"churn":     churn,
		"feedback":  feedbackFig,
	}
	if *fig == "all" {
		for _, k := range []string{"intro", "7", "9", "10", "11", "12", "overhead", "topology", "scale", "ablation", "schedules", "priors", "churn", "feedback"} {
			if err := runners[k](); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	run, ok := runners[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func header(title string) {
	fmt.Printf("\n═══ %s ═══\n\n", title)
}

func fig7() error {
	header("Figure 7 — convergence of the iterative message passing algorithm (priors 0.7, Δ=0.1)")
	tr, res, err := experiments.Fig7()
	if err != nil {
		return err
	}
	fmt.Print(eval.Plot(tr.Series(), 60, 14))
	fmt.Printf("\nconverged after %d iterations; final posteriors:\n", res.Rounds)
	fin := tr.Final()
	names := make([]string, 0, len(fin))
	for n := range fin {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([][]string, 0, len(names))
	for _, n := range names {
		rows = append(rows, []string{n, fmt.Sprintf("%.4f", fin[n])})
	}
	fmt.Println(eval.Table([]string{"mapping", "P(correct)"}, rows))
	return nil
}

func fig9() error {
	header("Figure 9 — error of iterative message passing vs exact inference (priors 0.8, 10 iterations)")
	pts, err := experiments.Fig9(6)
	if err != nil {
		return err
	}
	s := eval.Series{Name: "mean |iterative − exact| (%)"}
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		s.Add(float64(p.MaxCycleLen), 100*p.MeanAbsErr)
		rows = append(rows, []string{
			fmt.Sprint(p.Extra), fmt.Sprint(p.MaxCycleLen), fmt.Sprintf("%.2f%%", 100*p.MeanAbsErr),
		})
	}
	fmt.Print(eval.Plot([]eval.Series{s}, 60, 12))
	fmt.Println()
	fmt.Println(eval.Table([]string{"extra peers", "longest cycle", "mean error"}, rows))
	fmt.Println("paper: the error stays below 6%, largest for the shortest cycles.")
	return nil
}

func fig10() error {
	header("Figure 10 — impact of the cycle length on the posterior (positive cycle, priors 0.5)")
	deltas := []float64{0.2, 0.1, 0.01}
	pts, err := experiments.Fig10(2, 20, deltas)
	if err != nil {
		return err
	}
	series := map[float64]*eval.Series{}
	var ordered []eval.Series
	for _, d := range deltas {
		series[d] = &eval.Series{Name: fmt.Sprintf("Δ=%.2f", d)}
	}
	for _, p := range pts {
		series[p.Delta].Add(float64(p.CycleLen), p.Posterior)
	}
	for _, d := range deltas {
		ordered = append(ordered, *series[d])
	}
	fmt.Print(eval.Plot(ordered, 60, 14))
	fmt.Println("paper: cycles longer than ~10 mappings provide almost no evidence.")
	return nil
}

func fig11() error {
	header("Figure 11 — robustness against faulty links (priors 0.8, Δ=0.1, 5 seeds)")
	psends := []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
	pts, err := experiments.Fig11(psends, 5)
	if err != nil {
		return err
	}
	s := eval.Series{Name: "mean rounds to convergence"}
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		s.Add(p.PSend, p.MeanRounds)
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.PSend),
			fmt.Sprintf("%.1f", p.MeanRounds),
			fmt.Sprint(p.AllConverged),
			fmt.Sprintf("%.2e", p.MaxDrift),
		})
	}
	fmt.Print(eval.Plot([]eval.Series{s}, 60, 12))
	fmt.Println()
	fmt.Println(eval.Table([]string{"P(send)", "rounds", "converged", "fixed-point drift"}, rows))
	fmt.Println("paper: the method always converges, even with 90% of messages lost.")
	return nil
}

func fig12() error {
	header("Figure 12 — precision on automatically aligned bibliographic ontologies (priors 0.5)")
	thetas := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	res, err := experiments.Fig12(thetas)
	if err != nil {
		return err
	}
	ex := res.Experiment
	fmt.Printf("workload: %d ontologies, %d alignments, %d correspondences (%d erroneous; paper: 396/86)\n\n",
		len(ex.Ontologies), len(ex.Alignments), len(ex.Correspondences), ex.Faulty())
	prec := eval.Series{Name: "precision"}
	rec := eval.Series{Name: "recall"}
	rows := make([][]string, 0, len(res.Points))
	for _, p := range res.Points {
		prec.Add(p.Theta, p.Precision)
		rec.Add(p.Theta, p.Recall)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.Theta), fmt.Sprint(p.Detected),
			fmt.Sprintf("%.2f", p.Precision), fmt.Sprintf("%.2f", p.Recall),
		})
	}
	fmt.Print(eval.Plot([]eval.Series{prec, rec}, 60, 12))
	fmt.Println()
	fmt.Println(eval.Table([]string{"θ", "detected", "precision", "recall"}, rows))
	fmt.Println("paper: precision ≥80% at low θ, declining with θ; phase transition near θ=0.6.")
	return nil
}

func intro() error {
	header("§4.5 — introductory example (no priors, Δ=0.1)")
	res, err := experiments.Intro()
	if err != nil {
		return err
	}
	fmt.Printf("evidence gathered by p2's probes: %d positive, %d negative\n", res.Report.Positive, res.Report.Negative)
	fmt.Printf("converged after %d rounds\n\n", res.Rounds)
	rows := [][]string{}
	for _, m := range []string{"m12", "m23", "m34", "m41", "m24"} {
		rows = append(rows, []string{
			m,
			fmt.Sprintf("%.3f", res.Posterior[graph.EdgeID(m)]),
			fmt.Sprintf("%.3f", res.UpdatedPriors[graph.EdgeID(m)]),
		})
	}
	fmt.Println(eval.Table([]string{"mapping", "posterior P(correct)", "prior after EM update"}, rows))
	fmt.Println("paper: posteriors 0.59 (m23) and 0.3 (m24); priors update to 0.55 and 0.4.")
	return nil
}

func overhead() error {
	header("§4.3.1 — communication overhead of the periodic schedule (Fig 5 network)")
	pt, err := experiments.Overhead()
	if err != nil {
		return err
	}
	fmt.Println(eval.Table(
		[]string{"network", "remote msgs/round", "bound Σ l(l−1)", "within bound"},
		[][]string{{pt.Network, fmt.Sprint(pt.PerRound), fmt.Sprint(pt.Bound), fmt.Sprint(pt.WithinBound)}},
	))
	return nil
}

func topology() error {
	header("§3.2.1 — semantic overlay topology statistics (150 peers)")
	stats, err := experiments.Topology(150, 3, 5)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(stats))
	for _, s := range stats {
		rows = append(rows, []string{
			s.Kind, fmt.Sprint(s.Peers), fmt.Sprint(s.Edges),
			fmt.Sprintf("%.3f", s.Clustering), fmt.Sprint(s.MaxDegree),
			fmt.Sprintf("%.1f", s.AverageDegree), fmt.Sprint(s.CyclesLen5),
		})
	}
	fmt.Println(eval.Table(
		[]string{"generator", "peers", "edges", "clustering", "max degree", "avg degree", "cycles ≤5"},
		rows))
	fmt.Println("paper: semantic overlays are scale-free and unusually clustered (SRS: 0.54).")
	return nil
}

func scale() error {
	header("extension (§7) — detection on generated scale-free PDMS overlays (15% corrupted mappings)")
	pts, err := experiments.Scale([]int{30, 60, 120}, 0.15, 4, 11)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprint(p.Peers), fmt.Sprint(p.Mappings), fmt.Sprint(p.Faulty),
			fmt.Sprint(p.Covered), fmt.Sprintf("%.2f", p.Precision), fmt.Sprintf("%.2f", p.Recall),
			fmt.Sprint(p.Rounds), fmt.Sprintf("%.0fms", p.Millis),
		})
	}
	fmt.Println(eval.Table(
		[]string{"peers", "mappings", "faulty", "covered", "precision", "recall", "rounds", "time"},
		rows))
	return nil
}

func ablation() error {
	header("ablations — §4.1 granularity and §3.3 parallel paths")
	gr, err := experiments.GranularityAblation(40, 0.15, 4, 4, 9)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(gr))
	for _, p := range gr {
		rows = append(rows, []string{
			p.Granularity, fmt.Sprint(p.Variables),
			fmt.Sprintf("%.2f", p.Precision), fmt.Sprintf("%.2f", p.Recall),
		})
	}
	fmt.Println(eval.Table([]string{"granularity", "variables", "precision", "recall"}, rows))
	pp, err := experiments.ParallelPathAblation()
	if err != nil {
		return err
	}
	rows = rows[:0]
	for _, p := range pp {
		rows = append(rows, []string{
			p.Arm, fmt.Sprint(p.Evidence),
			fmt.Sprintf("%.3f", p.Posterior), fmt.Sprintf("%.3f", p.Separation),
		})
	}
	fmt.Println(eval.Table([]string{"evidence set", "observations", "faulty posterior", "separation"}, rows))
	return nil
}

func schedules() error {
	header("§4.3 — the three message passing schedules on the introductory network")
	pts, err := experiments.CompareSchedules()
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			p.Schedule, fmt.Sprint(p.Messages), fmt.Sprint(p.Carried),
			fmt.Sprint(p.Converged), fmt.Sprintf("%.3f", p.BadPost),
		})
	}
	fmt.Println(eval.Table(
		[]string{"schedule", "dedicated msgs", "piggybacked", "converged", "m24 posterior"},
		rows))
	return nil
}

func priors() error {
	header("§4.4 — prior learning across detect-and-commit epochs")
	eps, err := experiments.PriorLearning(6)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(eps))
	for _, e := range eps {
		rows = append(rows, []string{
			fmt.Sprint(e.Epoch),
			fmt.Sprintf("%.3f", e.PriorGood), fmt.Sprintf("%.3f", e.PriorBad),
			fmt.Sprintf("%.3f", e.PostGood), fmt.Sprintf("%.3f", e.PostBad),
		})
	}
	fmt.Println(eval.Table(
		[]string{"epoch", "prior m23", "prior m24", "posterior m23", "posterior m24"},
		rows))
	return nil
}

func churn() error {
	header("extension (§7) — maintenance after churn: the faulty mapping gets fixed")
	res, err := experiments.Churn()
	if err != nil {
		return err
	}
	fmt.Println(eval.Table(
		[]string{"belief about m24", "value"},
		[][]string{
			{"stale (before rediscovery)", fmt.Sprintf("%.3f", res.StalePosterior)},
			{"fresh (after rediscovery)", fmt.Sprintf("%.3f", res.RefreshPosterior)},
		}))
	fmt.Println("stale posteriors keep blocking a corrected link until evidence is re-gathered —")
	fmt.Println("the maintenance/relevance trade-off the paper flags as future work.")

	header("churn timeline — generated scenario, incremental re-detection per epoch (60 peers)")
	eps, err := experiments.ChurnTimeline(60, 6, 17)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(eps))
	for _, e := range eps {
		rows = append(rows, []string{
			fmt.Sprint(e.Epoch), fmt.Sprint(e.Peers), fmt.Sprint(e.Mappings),
			fmt.Sprint(e.Corrupted), fmt.Sprint(e.Evidence), fmt.Sprint(e.Rounds),
			fmt.Sprintf("%.3f", e.MeanClean), fmt.Sprintf("%.3f", e.MeanCorrupt),
			fmt.Sprint(e.Violations),
		})
	}
	fmt.Println(eval.Table(
		[]string{"epoch", "peers", "mappings", "corrupted", "evidence", "rounds", "clean post", "corrupt post", "violations"},
		rows))
	fmt.Println("every epoch churns the network (join/leave/corrupt/fix), re-detects incrementally,")
	fmt.Println("and revalidates the maintained evidence against full rediscovery (see TESTING.md).")
	return nil
}

func feedbackFig() error {
	header("feedback — posterior error vs queries served and fed back (100-peer churny overlay, 10% verdict noise)")
	pts, err := experiments.FeedbackConvergence(100, 5, 2000, 0.1, 7)
	if err != nil {
		return err
	}
	s := eval.Series{Name: "mean posterior error after feedback"}
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		s.Add(float64(p.QueriesServed), p.ErrAfter)
		rows = append(rows, []string{
			fmt.Sprint(p.Epoch), fmt.Sprint(p.QueriesServed), fmt.Sprint(p.Observations),
			fmt.Sprintf("%d+%d", p.NewFactors, p.Bumped),
			fmt.Sprint(p.TouchedVars), fmt.Sprint(p.IncrRounds),
			fmt.Sprintf("%.4f", p.ErrBefore), fmt.Sprintf("%.4f", p.ErrAfter),
		})
	}
	fmt.Print(eval.Plot([]eval.Series{s}, 60, 12))
	fmt.Println()
	fmt.Println(eval.Table(
		[]string{"epoch", "queries", "observations", "factors new+bumped", "touched vars", "incr rounds", "err before", "err after"},
		rows))
	fmt.Println("each epoch: churn → detect → publish → serve → feedback → incremental re-detect →")
	fmt.Println("republish. The error falls as served traffic accumulates — the network learns from")
	fmt.Println("its own queries (serve → evidence → BP → snapshot → serve, closed).")
	return nil
}
