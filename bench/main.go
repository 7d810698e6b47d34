// Command bench is the repository's benchmark: four named workloads, the
// end-to-end metrics a user of the system sees and, in a separate traced run,
// one ladder of per-layer metrics timed from outside each layer's exported
// functions. BENCHMARK.json at the root of the repo fixes the workloads and
// every metric's unit, direction and bound; README.md in this directory says
// why each workload exists and which end-to-end metric each layer metric
// should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// buildDir holds everything a run writes: the log directories of the
// durability phases, span files and, by default, the result document.
// manifestPath is where a run started at the root of a checkout finds the
// manifest.
const (
	buildDir     = ".bench_build"
	manifestPath = "BENCHMARK.json"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process; empty runs all four, each in a fresh child process")
	flag.Int64Var(&o.seed, "seed", 2, "seed of everything that arrives at the overlay: stores, key streams, verdicts")
	flag.IntVar(&o.seconds, "seconds", 0, "nominal length of the measured phase; answer counts scale with it (0 = run_seconds of the manifest)")
	trace := flag.Int("trace", 0, "1 records spans with one client and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append the full result to this JSON document")
	compare := flag.Bool("compare", false, "compare two result documents: bench -compare base.json next.json")
	flag.Parse()
	o.trace = *trace != 0

	err := func() error {
		m, err := loadManifest(manifestPath)
		if err != nil {
			return err
		}
		if *compare {
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result documents")
			}
			return compareFiles(m, flag.Arg(0), flag.Arg(1), os.Stdout)
		}
		if o.seconds <= 0 {
			o.seconds = m.RunSeconds
		}
		if o.workload == "" {
			return runAll(m, o)
		}
		return runOne(m, o)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints every metric and ends
// with the one-line result the driver reads.
func runOne(m *Manifest, o options) error {
	spec, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	sz := spec.sizes.scaled(float64(o.seconds) / float64(m.RunSeconds))
	res, err := runWorkload(m, o.workload, spec.run, sz, o.seed, o.seconds, o.trace)
	if err != nil {
		return err
	}
	res.print(m, os.Stdout)
	if o.out != "" {
		if err := appendResult(o.out, res); err != nil {
			return err
		}
	}
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: correctness checks failed: %v", o.workload, res.Failures)
	}
	return nil
}

// runAll runs every workload of the manifest in a fresh child process each,
// so one workload's heap and peak memory never leak into the next one's
// numbers, and gathers the results in one document.
func runAll(m *Manifest, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if o.out == "" {
		o.out = filepath.Join(buildDir, "bench.json")
		if err := os.Remove(o.out); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	for _, w := range m.Workloads {
		cmd := exec.Command(self,
			"-workload", w.Name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-out", o.out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	fmt.Printf("results: %s\n", o.out)
	return nil
}
