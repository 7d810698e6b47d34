package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// The benchmark has two documents, both decoded strictly (unknown keys are
// errors) and both canonical (encode ∘ decode is the identity):
//
//   - the manifest, BENCHMARK.json at the root of the repo, which names the
//     workloads and fixes every metric's unit, direction and bound;
//   - the result document, a list of run results that -out appends to and
//     -compare reads back.

// Manifest mirrors BENCHMARK.json.
type Manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []MetricDef   `json:"end_to_end"`
	PerLayer   []LayerDef    `json:"per_layer"`
}

// WorkloadDef names one workload and records why it was chosen.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDef fixes one end-to-end metric. Bound is the share of the parent's
// median by which the metric may get worse before a change is a regression.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LayerDef fixes one per-layer metric; layers carry no bound.
type LayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultSchema versions the result document.
const resultSchema = 1

// Document is what -out writes: the results of any number of runs.
type Document struct {
	Schema  int      `json:"schema"`
	Results []Result `json:"results"`
}

// Result is the record of one run of one workload. Metrics holds every
// end-to-end metric of the manifest when Trace is false and every per-layer
// metric when it is true. Counters and Digests depend only on (workload, seed,
// sizes): two runs that agree on those must agree on them exactly.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       Env               `json:"env"`
	Sizes     sizes             `json:"sizes"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures"`
	Metrics   map[string]Metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
	Counters  map[string]int64  `json:"counters"`
	Digests   map[string]string `json:"digests"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// decodeStrict decodes exactly one JSON value into v and rejects unknown keys
// and trailing data.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

func loadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := decodeStrict(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := m.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// check enforces what this program relies on: well-formed unique names,
// known directions and a bound on every end-to-end metric.
func (m *Manifest) check() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("workload %q is not implemented", w.Name)
		}
	}
	better := func(n, b string) error {
		if b != "lower" && b != "higher" {
			return fmt.Errorf("metric %q: better is %q, want lower or higher", n, b)
		}
		return nil
	}
	for _, d := range m.EndToEnd {
		if err := name("metric", d.Name); err != nil {
			return err
		}
		if err := better(d.Name, d.Better); err != nil {
			return err
		}
		if d.Unit == "" || d.Bound <= 0 || d.Bound > 0.25 {
			return fmt.Errorf("metric %q needs a unit and a bound in (0, 0.25]", d.Name)
		}
	}
	for _, d := range m.PerLayer {
		if err := name("metric", d.Name); err != nil {
			return err
		}
		if err := better(d.Name, d.Better); err != nil {
			return err
		}
		if d.Unit == "" {
			return fmt.Errorf("metric %q needs a unit", d.Name)
		}
	}
	if m.RunSeconds < 1 || len(m.Workloads) == 0 || len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return fmt.Errorf("run_seconds, workloads, end_to_end and per_layer are all required")
	}
	return nil
}

// units returns name → unit for the metric set a run with the given trace
// mode must report.
func (m *Manifest) units(trace bool) map[string]string {
	out := map[string]string{}
	if trace {
		for _, d := range m.PerLayer {
			out[d.Name] = d.Unit
		}
	} else {
		for _, d := range m.EndToEnd {
			out[d.Name] = d.Unit
		}
	}
	return out
}

// validate checks a result against the manifest: a known workload, exactly
// the manifest's metrics for the run's trace mode, each with the manifest's
// unit and a finite value, and — end to end — never zero.
func (r *Result) validate(m *Manifest) error {
	known := false
	for _, w := range m.Workloads {
		known = known || w.Name == r.Workload
	}
	if !known {
		return fmt.Errorf("workload %q is not in the manifest", r.Workload)
	}
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
		return fmt.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
	}
	want := m.units(r.Trace)
	for n, unit := range want {
		got, ok := r.Metrics[n]
		switch {
		case !ok:
			return fmt.Errorf("metric %q is missing", n)
		case got.Unit != unit:
			return fmt.Errorf("metric %q has unit %q, want %q", n, got.Unit, unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %q is not finite", n)
		case !r.Trace && got.Value == 0:
			return fmt.Errorf("end-to-end metric %q is zero", n)
		}
	}
	for n := range r.Metrics {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("metric name %q is malformed", n)
		}
		if _, ok := want[n]; !ok {
			return fmt.Errorf("metric %q is not in the manifest", n)
		}
	}
	return nil
}

// contractLine is the last line of standard output the driver reads.
func (r *Result) contractLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}
