package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the acceptance procedure computes.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	med := median(values)
	if len(values) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / med
}

// comparison judges one end-to-end metric on one workload: base are the values of
// the first document, next those of the second.
type comparison struct {
	baseMedian, nextMedian float64
	baseSpread, nextSpread float64
	worse                  float64 // share of the base median by which next is worse; negative is better
	status                 string  // ok, regression or unresolved
}

func compareMetric(d MetricDef, base, next []float64) comparison {
	v := comparison{
		baseMedian: median(base), nextMedian: median(next),
		baseSpread: spread(base), nextSpread: spread(next),
		status: "ok",
	}
	v.worse = (v.nextMedian - v.baseMedian) / v.baseMedian
	better := func(a, b float64) bool { return a < b }
	if d.Better == "higher" {
		v.worse = -v.worse
		better = func(a, b float64) bool { return a > b }
	}
	switch {
	case max(v.baseSpread, v.nextSpread) > d.Bound:
		// The sets' own spread hides a change of the size of the bound. The
		// metric is resolved only where the two sets do not overlap: ok if
		// every run of next beats every run of base, a regression if the
		// median is out of bounds and no run of next beats any run of base.
		allBetter, noneBetter := true, true
		for _, n := range next {
			for _, b := range base {
				if better(n, b) {
					noneBetter = false
				} else {
					allBetter = false
				}
			}
		}
		switch {
		case allBetter:
		case noneBetter && v.worse > d.Bound:
			v.status = "regression"
		default:
			v.status = "unresolved"
		}
	case v.worse > d.Bound:
		v.status = "regression"
	}
	return v
}

// runKey names the runs whose counters and digests must agree.
type runKey struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// compareFiles applies each end-to-end metric's bound to two result
// documents, workload by workload, and checks that runs of the same inputs
// agree on what is deterministic: counters, digests and posterior_error. It
// returns an error on a regression, a higher error rate, an incorrect run, a
// workload that only one document has runs of, or a disagreement between two
// runs of one commit. Between two commits a disagreement is a change: it is
// printed, and posterior_error answers to its bound like any metric.
func compareFiles(m *Manifest, basePath, nextPath string, w io.Writer) error {
	base, err := loadDocument(basePath)
	if err != nil {
		return err
	}
	next, err := loadDocument(nextPath)
	if err != nil {
		return err
	}
	for _, d := range []*Document{base, next} {
		for i := range d.Results {
			if err := d.Results[i].validate(m); err != nil {
				return fmt.Errorf("%s seed %d: %w", d.Results[i].Workload, d.Results[i].Seed, err)
			}
		}
	}
	var bad, unresolved int
	for _, wl := range m.Workloads {
		b, n := untraced(base, wl.Name), untraced(next, wl.Name)
		if len(b) == 0 && len(n) == 0 {
			continue
		}
		if len(b) == 0 || len(n) == 0 {
			// A set that stopped part-way must not pass for want of runs.
			fmt.Fprintf(w, "%s: %d runs against %d, one side is missing\n", wl.Name, len(n), len(b))
			bad++
			continue
		}
		fmt.Fprintf(w, "%s: %d runs against %d\n", wl.Name, len(n), len(b))
		for _, d := range m.EndToEnd {
			v := compareMetric(d, values(b, d.Name), values(n, d.Name))
			fmt.Fprintf(w, "  %-16s %-10s next/base %.4f of base %.6g %s (next %.6g), %+.2f%% worse, bound %g%%, spread %.2f%% and %.2f%%\n",
				d.Name, v.status, v.nextMedian/v.baseMedian, v.baseMedian, d.Unit, v.nextMedian,
				100*v.worse, 100*d.Bound, 100*v.baseSpread, 100*v.nextSpread)
			switch v.status {
			case "regression":
				bad++
			case "unresolved":
				unresolved++
			}
		}
		be, ne := errorRate(b), errorRate(n)
		fmt.Fprintf(w, "  %-16s next %g, base %g\n", "error_rate", ne, be)
		if ne > be {
			bad++
		}
		for _, r := range append(b, n...) {
			if !r.Correct {
				fmt.Fprintf(w, "  seed %d is incorrect: %v\n", r.Seed, r.Failures)
				bad++
			}
		}
	}

	seen := map[runKey]*Result{}
	for i := range base.Results {
		r := &base.Results[i]
		seen[runKey{r.Workload, r.Seed, r.Seconds, r.Trace}] = r
	}
	for i := range next.Results {
		r := &next.Results[i]
		b, ok := seen[runKey{r.Workload, r.Seed, r.Seconds, r.Trace}]
		if !ok || b.Sizes != r.Sizes {
			continue
		}
		for _, diff := range disagreements(b, r) {
			if b.Env.Commit == r.Env.Commit {
				fmt.Fprintf(w, "%s seed %d: two runs of one commit disagree: %s\n", r.Workload, r.Seed, diff)
				bad++
			} else {
				fmt.Fprintf(w, "%s seed %d: changed: %s\n", r.Workload, r.Seed, diff)
			}
		}
	}
	fmt.Fprintf(w, "%d regressions or disagreements, %d unresolved\n", bad, unresolved)
	if bad > 0 {
		return fmt.Errorf("%s is worse than %s", nextPath, basePath)
	}
	return nil
}

func untraced(d *Document, workload string) []*Result {
	var out []*Result
	for i := range d.Results {
		if r := &d.Results[i]; r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []*Result, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func errorRate(rs []*Result) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

// disagreements lists what two runs of the same inputs differ on and should
// not: the counters, the digests and posterior_error.
func disagreements(a, b *Result) []string {
	var out []string
	if av, ok := a.Metrics["posterior_error"]; ok && av.Value != b.Metrics["posterior_error"].Value {
		out = append(out, fmt.Sprintf("posterior_error is %v and %v", av.Value, b.Metrics["posterior_error"].Value))
	}
	for _, k := range sortedKeys(a.Counters) {
		if bv, ok := b.Counters[k]; ok && bv != a.Counters[k] {
			out = append(out, fmt.Sprintf("counter %s is %d and %d", k, a.Counters[k], bv))
		}
	}
	for _, k := range sortedKeys(a.Digests) {
		if bv, ok := b.Digests[k]; ok && bv != a.Digests[k] {
			out = append(out, fmt.Sprintf("digest %s is %s and %s", k, a.Digests[k], bv))
		}
	}
	return out
}
