package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// Env fingerprints where a result was measured: numbers from two different
// fingerprints are not comparable.
type Env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
}

func fingerprint() Env {
	env := Env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		env.Commit += dirty
	}
	return env
}

// procField returns the value of the first "key : value" line of a /proc file,
// or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// runWorkload runs one workload in this process and assembles its result. A
// traced run uses one client, so serve.Stats deltas classify every call, and
// writes its spans as JSON lines when it ends.
func runWorkload(m *Manifest, name string, body func(*run) error, sz sizes, seed int64, secs int, trace bool) (*Result, error) {
	r := &run{
		sz: sz, seed: seed,
		dir:      filepath.Join(buildDir, fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid())),
		v:        map[string]float64{},
		samples:  map[string]int{},
		counters: map[string]int64{},
		digests:  map[string]string{},
	}
	if trace {
		r.tr = newTracer()
		r.sz.Clients = 1
		r.sz.PassAnswers = min(r.sz.PassAnswers, tracedAnswers)
		if r.sz.QueriesPerEpoch > 0 {
			r.sz.QueriesPerEpoch = min(r.sz.QueriesPerEpoch, tracedAnswers)
		}
	}
	defer r.cleanup()
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	root := r.tr.begin("bench." + name)
	if err := body(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if trace {
		if err := r.probeLayers(); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", name, err)
		}
	}
	r.tr.end(root)

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.v["runtime.gc_pause_ms"] = float64(mem.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	r.v["runtime.heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	r.v["peak_rss_mb"] = peakRSSMB()

	if trace {
		// What the root span does not pass on to a child is time no layer
		// accounts for.
		st := selfTimes(r.tr.spans)["bench."+name]
		r.v["trace_coverage_pct"] = 100 * (1 - st.self.Seconds()/st.total.Seconds())
		if r.v["trace_coverage_pct"] < 95 {
			r.failf("the spans cover %.1f%% of the run, want at least 95%%", r.v["trace_coverage_pct"])
		}
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Workload: name, Seed: seed, Seconds: secs, Trace: trace,
		Env: fingerprint(), Sizes: r.sz,
		Attempted: r.attempted, Failed: r.failed, Failures: append([]string{}, r.failures...),
		Metrics: map[string]Metric{}, Samples: map[string]int{},
		Counters: r.counters, Digests: r.digests,
	}
	for n, unit := range m.units(trace) {
		v, ok := r.v[n]
		if !ok {
			return nil, fmt.Errorf("%s measured no %q", name, n)
		}
		res.Metrics[n] = Metric{Value: v, Unit: unit}
		if c, ok := r.samples[n]; ok {
			res.Samples[n] = c
		}
	}
	if err := res.validate(m); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// tracedAnswers caps the answers of a traced pass: every one keeps a span.
const tracedAnswers = 200_000

// print lists the run's fingerprint and every metric by name, with its unit
// and, where they apply, its sample count and bound.
func (r *Result) print(m *Manifest, w io.Writer) {
	sz, _ := json.Marshal(r.Sizes)
	fmt.Fprintf(w, "# workload %s seed %d seconds %d trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "# commit %s %s GOMAXPROCS %d nproc %d cpu %q\n", r.Env.Commit, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.CPUModel)
	fmt.Fprintf(w, "# sizes %s\n", sz)
	bounds := map[string]float64{}
	for _, d := range m.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	for _, n := range sortedKeys(r.Metrics) {
		mt := r.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %-6s", n, mt.Value, mt.Unit)
		if c, ok := r.Samples[n]; ok {
			fmt.Fprintf(w, " samples %d", c)
		}
		if b, ok := bounds[n]; ok {
			fmt.Fprintf(w, " bound %g%%", 100*b)
		}
		fmt.Fprintln(w)
	}
	for _, n := range sortedKeys(r.Counters) {
		fmt.Fprintf(w, "counter %-28s %d\n", n, r.Counters[n])
	}
	for _, n := range sortedKeys(r.Digests) {
		fmt.Fprintf(w, "digest  %-28s %s\n", n, r.Digests[n])
	}
	fmt.Fprintf(w, "attempted %d failed %d error_rate %g correct %v\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), len(r.Failures) == 0)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadDocument reads a result document strictly.
func loadDocument(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Document
	if err := decodeStrict(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != resultSchema {
		return nil, fmt.Errorf("%s: result schema %d, want %d", path, d.Schema, resultSchema)
	}
	return &d, nil
}

// appendResult adds one result to the document at path, creating it if absent.
func appendResult(path string, res *Result) error {
	d := &Document{Schema: resultSchema}
	if _, err := os.Stat(path); err == nil {
		if d, err = loadDocument(path); err != nil {
			return err
		}
	}
	d.Results = append(d.Results, *res)
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
