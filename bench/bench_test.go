package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func repoManifest(t *testing.T) (*Manifest, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := decodeStrict(data, &m); err != nil {
		t.Fatal(err)
	}
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
	return &m, data
}

// tiny shrinks a workload's pinned sizes to a smoke test's.
func tiny(sz sizes) sizes {
	sz.Peers, sz.Repeats = 60, 2
	if sz.HotShare == 0 {
		sz.CacheSize = 64 // the cold workloads keep a cache smaller than their key universe
	}
	sz.PassAnswers, sz.Passes, sz.Samples = 2000, 2, 50
	sz.Refreshes, sz.RefreshAnswers, sz.Recovers = 2, 200, 2
	if sz.Epochs > 0 {
		sz.Loops, sz.Epochs, sz.ChurnEpochs, sz.Events, sz.QueriesPerEpoch = 2, 3, 2, 3, 500
	}
	return sz
}

// TestSmoke runs all four workloads at tiny sizes, untraced and traced: every
// correctness check must pass and every metric the manifest names for the mode
// must be there with the manifest's unit (runWorkload and validate refuse
// anything else).
func TestSmoke(t *testing.T) {
	m, _ := repoManifest(t)
	t.Chdir(t.TempDir())
	for _, w := range m.Workloads {
		for _, trace := range []bool{false, true} {
			spec := workloads[w.Name]
			res, err := runWorkload(m, w.Name, spec.run, tiny(spec.sizes), 7, 1, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: failed %d: %v", w.Name, trace, res.Failed, res.Failures)
			}
			if got, want := len(res.Metrics), len(m.units(trace)); got != want {
				t.Errorf("%s trace=%v: %d metrics, the manifest names %d", w.Name, trace, got, want)
			}
			var buf bytes.Buffer
			res.print(m, &buf)
			for n := range m.units(trace) {
				if !strings.Contains(buf.String(), n+" ") {
					t.Errorf("%s trace=%v: %s is not printed", w.Name, trace, n)
				}
			}
			if trace {
				spans, err := os.ReadFile(filepath.Join(buildDir, "spans-"+w.Name+"-7.jsonl"))
				if err != nil || !bytes.Contains(spans, []byte(`"name":"bench.`+w.Name+`"`)) {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestSameSeedSameCounters is what -compare relies on: two runs of the same
// inputs agree on every counter and digest, and another seed still passes.
func TestSameSeedSameCounters(t *testing.T) {
	m, _ := repoManifest(t)
	t.Chdir(t.TempDir())
	for _, name := range []string{"serve_cold", "closed_loop"} {
		spec := workloads[name]
		var results []*Result
		for _, seed := range []int64{11, 11, 12} {
			res, err := runWorkload(m, name, spec.run, tiny(spec.sizes), seed, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("%s seed %d: %v", name, seed, res.Failures)
			}
			results = append(results, res)
		}
		if diff := disagreements(results[0], results[1]); len(diff) > 0 {
			t.Errorf("%s: two runs of seed 11 disagree: %v", name, diff)
		}
		if diff := disagreements(results[0], results[2]); len(diff) == 0 {
			t.Errorf("%s: seeds 11 and 12 agree on everything; the seed reaches nothing", name)
		}
	}
}

func TestManifestIsStrictAndCanonical(t *testing.T) {
	m, data := repoManifest(t)
	for _, d := range m.EndToEnd {
		if !nameRE.MatchString(d.Name) || d.Unit == "" {
			t.Errorf("end-to-end metric %+v", d)
		}
	}
	for _, d := range m.PerLayer {
		if !nameRE.MatchString(d.Name) || d.Unit == "" {
			t.Errorf("per-layer metric %+v", d)
		}
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if m.units(false)["setup_s"] != "s" {
		t.Errorf("the manifest must list setup_s in seconds")
	}

	// encode ∘ decode is the identity.
	enc, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := decodeStrict(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, &back) {
		t.Errorf("the manifest does not survive encode ∘ decode")
	}
	again, _ := json.Marshal(&back)
	if !bytes.Equal(enc, again) {
		t.Errorf("the manifest's encoding is not canonical")
	}

	// Unknown keys, trailing data and malformed names are errors.
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	generic["extra"] = 1
	withExtra, _ := json.Marshal(generic)
	if err := decodeStrict(withExtra, new(Manifest)); err == nil {
		t.Errorf("an unknown key was accepted")
	}
	if err := decodeStrict(append(enc, []byte(" {}")...), new(Manifest)); err == nil {
		t.Errorf("trailing data was accepted")
	}
	bad := *m
	bad.PerLayer = append([]LayerDef{{Name: "no spaces", Unit: "s", Better: "lower"}}, m.PerLayer...)
	if err := bad.check(); err == nil {
		t.Errorf("a malformed metric name was accepted")
	}
	bad = *m
	bad.EndToEnd = append([]MetricDef{}, m.EndToEnd...)
	bad.EndToEnd[0].Bound = 0.3
	if err := bad.check(); err == nil {
		t.Errorf("a bound above 0.25 was accepted")
	}
}

func TestResultDocumentRoundTrip(t *testing.T) {
	m, _ := repoManifest(t)
	res := Result{
		Workload: "serve_hot", Seed: 5, Seconds: 1, Sizes: serveHotSizes(), Env: fingerprint(),
		Correct: true, Attempted: 10, Failures: []string{},
		Metrics: map[string]Metric{}, Samples: map[string]int{"setup_s": 3},
		Counters: map[string]int64{"detect_rounds": 59}, Digests: map[string]string{"snapshot": "ab"},
	}
	for n, unit := range m.units(false) {
		res.Metrics[n] = Metric{Value: 1.5, Unit: unit}
	}
	if err := res.validate(m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	for i := 0; i < 2; i++ {
		if err := appendResult(path, &res); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := loadDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 || !reflect.DeepEqual(doc.Results[0], res) {
		t.Errorf("the document does not survive encode ∘ decode: %+v", doc.Results)
	}
	data, _ := os.ReadFile(path)
	if err := decodeStrict(bytes.Replace(data, []byte(`"seed"`), []byte(`"sead"`), 1), new(Document)); err == nil {
		t.Errorf("an unknown result key was accepted")
	}

	// validate refuses a missing metric, a foreign one, a wrong unit and a zero.
	for name, breakIt := range map[string]func(r *Result){
		"missing": func(r *Result) { delete(r.Metrics, "setup_s") },
		"foreign": func(r *Result) { r.Metrics["serve.hit_ns"] = Metric{1, "ns"} },
		"unit":    func(r *Result) { r.Metrics["setup_s"] = Metric{1, "ms"} },
		"zero":    func(r *Result) { r.Metrics["setup_s"] = Metric{0, "s"} },
	} {
		broken := res
		broken.Metrics = map[string]Metric{}
		for k, v := range res.Metrics {
			broken.Metrics[k] = v
		}
		breakIt(&broken)
		if err := broken.validate(m); err == nil {
			t.Errorf("validate accepted a result with a %s metric", name)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for ns := 1; ns <= 100_000; ns++ {
		h.record(time.Duration(ns))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want)/want > 1.0/64 {
			t.Errorf("q%v = %v, want %v within a bucket (1/64)", q, got, want)
		}
	}
	if got := h.mean(); math.Abs(got-50_000)/50_000 > 1.0/64 {
		t.Errorf("mean %v, want 50000 within a bucket", got)
	}

	// Bucket edges: every value lands in a bucket that holds it and is at
	// most 1/64 wide.
	for _, ns := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		i := histIndex(ns)
		lo := uint64(0)
		if i > 0 {
			lo = histUpper(i-1) + 1
		}
		hi := histUpper(i)
		if ns < lo || ns > hi {
			t.Errorf("%d landed in bucket %d = [%d, %d]", ns, i, lo, hi)
		}
		if lo >= 64 && float64(hi-lo+1)/float64(lo) > 1.0/64 {
			t.Errorf("bucket %d = [%d, %d] is wider than 1/64", i, lo, hi)
		}
	}

	var a, b hist
	a.record(10)
	b.record(1000)
	b.record(1000)
	a.merge(&b)
	if a.n != 3 || a.quantile(0.5) < 900 {
		t.Errorf("merge: n %d, median %v", a.n, a.quantile(0.5))
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Errorf("an empty histogram has no quantile")
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100) has children a [10,40) and b [50,70); a has child c [20,25).
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 2, Name: "c", StartNs: 20, EndNs: 25},
		{ID: 4, Parent: 1, Name: "b", StartNs: 50, EndNs: 70},
		{ID: 5, Parent: 1, Name: "b", StartNs: 70, EndNs: 80},
	}
	got := selfTimes(spans)
	want := map[string]spanStat{
		"root": {count: 1, total: 100, self: 40},
		"a":    {count: 1, total: 30, self: 25},
		"c":    {count: 1, total: 5, self: 5},
		"b":    {count: 2, total: 30, self: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}

	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[1].Parent != outer || tr.spans[0].Parent != 0 || tr.spans[0].EndNs < tr.spans[1].EndNs {
		t.Errorf("nesting: %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("nothing")) // a nil tracer records nothing and does not panic
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) of Python 3.11.
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, 2, 8},
	} {
		q1, q3 := quartiles(c.values)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareMetric(t *testing.T) {
	lower := MetricDef{Name: "detect_s", Unit: "s", Better: "lower", Bound: 0.05}
	higher := MetricDef{Name: "answers_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 100.5, 99.5, 100.2, 99.8}
	for _, c := range []struct {
		name       string
		def        MetricDef
		base, next []float64
		want       string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within the bound", lower, steady, scale(steady, 1.04), "ok"},
		{"slower beyond the bound", lower, steady, scale(steady, 1.08), "regression"},
		{"faster", lower, steady, scale(steady, 0.5), "ok"},
		{"rate dropped", higher, steady, scale(steady, 0.9), "regression"},
		{"rate rose", higher, steady, scale(steady, 1.2), "ok"},
		{"noisy and overlapping", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "ok"},
		{"noisy but every run worse", lower, []float64{80, 100, 120, 90, 110}, []float64{160, 200, 240, 180, 220}, "regression"},
		{"noisy rate, every run worse", higher, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "regression"},
	} {
		if got := compareMetric(c.def, c.base, c.next); got.status != c.want {
			t.Errorf("%s: %s, want %s (%+v)", c.name, got.status, c.want, got)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestCompareFiles covers what compareMetric does not see: a workload one
// side never ran, and the exact agreement of two runs of one commit.
func TestCompareFiles(t *testing.T) {
	m, _ := repoManifest(t)
	result := func(workload, commit string, detectRounds int64, posteriorError float64) Result {
		spec := workloads[workload]
		res := Result{
			Workload: workload, Seed: 5, Seconds: 1, Sizes: spec.sizes, Env: Env{Commit: commit},
			Correct: true, Attempted: 10, Failures: []string{},
			Metrics: map[string]Metric{}, Samples: map[string]int{},
			Counters: map[string]int64{"detect_rounds": detectRounds}, Digests: map[string]string{"snapshot": "ab"},
		}
		for n, unit := range m.units(false) {
			res.Metrics[n] = Metric{Value: 1.5, Unit: unit}
		}
		res.Metrics["posterior_error"] = Metric{Value: posteriorError, Unit: m.units(false)["posterior_error"]}
		return res
	}
	both := func(commit string, rounds int64, pe float64) []Result {
		return []Result{result("serve_hot", commit, rounds, pe), result("closed_loop", commit, rounds, pe)}
	}
	base := both("c1", 59, 0.2)
	for _, c := range []struct {
		name string
		next []Result
		ok   bool
	}{
		{"the same runs", both("c1", 59, 0.2), true},
		{"a workload is missing from one side", both("c1", 59, 0.2)[:1], false},
		{"one commit, another counter", both("c1", 60, 0.2), false},
		{"one commit, another posterior_error", both("c1", 59, 0.2001), false},
		{"two commits, another counter and posterior_error within its bound", both("c2", 60, 0.2001), true},
		{"two commits, posterior_error out of bounds", both("c2", 59, 0.3), false},
	} {
		dir := t.TempDir()
		for name, results := range map[string][]Result{"base.json": base, "next.json": c.next} {
			for i := range results {
				if err := appendResult(filepath.Join(dir, name), &results[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		var out bytes.Buffer
		err := compareFiles(m, filepath.Join(dir, "base.json"), filepath.Join(dir, "next.json"), &out)
		if (err == nil) != c.ok {
			t.Errorf("%s: error %v, want ok %v\n%s", c.name, err, c.ok, out.String())
		}
	}
}
