package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/wal"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// transport lets CI run the golden suites as a matrix over message
// substrates: `go test ./cmd/pdmssim -transport tcp` must reproduce the
// same committed bytes as the default, because traces do not depend on the
// transport.
var transport = flag.String("transport", "", "run golden scenarios and load specs over this transport (sim, sharded, tcp)")

// million opts into the full-scale acceptance runs (≥1M answered queries
// against a 1000-peer network with churn). They take a couple of minutes,
// so they are off by default; PERFORMANCE.md runs enable them with
// `go test ./cmd/pdmssim -run TestMillionQuery -million`.
var million = flag.Bool("million", false, "run the 1M-query acceptance workloads")

// checkGoldens runs every testdata file named *<in> under the mode flag,
// over the -transport matrix flag's transport, and asserts each output
// reproduces the committed <name><trace> bit for bit: every posterior,
// message count, served count, cache hit and digest. Regenerate with
// `go test ./cmd/pdmssim -update` after an intentional engine change, and
// review the diff.
func checkGoldens(t *testing.T, mode, in, trace string) {
	inputs, err := filepath.Glob(filepath.Join("testdata", "*"+in))
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) < 3 {
		t.Fatalf("found %d *%s files under testdata/, want at least 3", len(inputs), in)
	}
	for _, path := range inputs {
		name := strings.TrimSuffix(filepath.Base(path), in)
		t.Run(name, func(t *testing.T) {
			args := []string{mode, path}
			if *transport != "" {
				args = append(args, "-transport", *transport)
			}
			var got bytes.Buffer
			if err := run(args, &got, io.Discard); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name+trace)
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("trace for %s does not reproduce the golden file bit-for-bit\n"+
					"regenerate with `go test ./cmd/pdmssim -update` and review the diff", name)
			}
			// Golden runs must stay violation-free: the committed traces
			// double as a record that the invariant suite held. A served run
			// must also answer everything it is asked.
			if bytes.Contains(want, []byte(`"violations": [`)) {
				t.Errorf("golden trace %s contains invariant violations", name)
			}
			if bytes.Contains(want, []byte(`"errors"`)) {
				t.Errorf("golden trace %s contains serving errors", name)
			}
		})
	}
}

// TestGoldenTraces replays the committed scenarios against their traces.
func TestGoldenTraces(t *testing.T) { checkGoldens(t, "-scenario", ".scenario.json", ".trace.json") }

// TestGoldenWorkloadTraces runs the committed load specs against their
// aggregate traces, which must reproduce however the client goroutines
// interleave.
func TestGoldenWorkloadTraces(t *testing.T) {
	checkGoldens(t, "-spec", ".load.json", ".load.trace.json")
}

// TestCrossTransportGolden is the cross-transport differential: every
// golden scenario must produce byte-identical traces on the deterministic
// Simulator, the sharded parallel simulator (at several worker counts) and
// the TCP loopback. Message loss, message counts and posteriors all ride
// the same deterministic per-pair loss model, so nothing in the trace may
// depend on the substrate.
func TestCrossTransportGolden(t *testing.T) {
	scenarios, err := filepath.Glob(filepath.Join("testdata", "*.scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) == 0 {
		t.Fatal("no scenarios under testdata/")
	}
	for _, sc := range scenarios {
		name := strings.TrimSuffix(filepath.Base(sc), ".scenario.json")
		t.Run(name, func(t *testing.T) {
			var ref bytes.Buffer
			if err := run([]string{"-scenario", sc, "-transport", "sim"}, &ref, io.Discard); err != nil {
				t.Fatal(err)
			}
			variants := [][]string{
				{"-scenario", sc, "-transport", "sharded"},
				{"-scenario", sc, "-transport", "sharded", "-shards", "3"},
				{"-scenario", sc, "-transport", "tcp"},
			}
			for _, args := range variants {
				var got bytes.Buffer
				if err := run(args, &got, io.Discard); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				if !bytes.Equal(got.Bytes(), ref.Bytes()) {
					t.Errorf("trace with %v differs from the simulator trace", args[2:])
				}
			}
		})
	}
}

// TestGenerateReproducible: -gen emits identical scenarios for a seed, and
// the generated scenario runs cleanly end to end.
func TestGenerateReproducible(t *testing.T) {
	checkGenerate(t, "-scenario", []string{"-gen", "-seed", "9", "-peers", "10"})
}

// TestLoadGenerateReproducible: -gen -clients emits identical load specs for
// a seed, and the generated spec runs cleanly end to end.
func TestLoadGenerateReproducible(t *testing.T) {
	res := checkGenerate(t, "-spec", []string{"-gen", "-seed", "11", "-peers", "10", "-epochs", "2", "-queries", "80", "-clients", "4"})
	if res.TotalServed != 160 {
		t.Errorf("served %d answers, want 160", res.TotalServed)
	}
}

// checkGenerate runs gen twice, requires byte-identical documents, and runs
// the document under mode, returning its trace.
func checkGenerate(t *testing.T, mode string, gen []string) sim.Result {
	t.Helper()
	var a, b bytes.Buffer
	if err := run(gen, &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(gen, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%v: generation is not reproducible", gen)
	}
	path := filepath.Join(t.TempDir(), "gen.json")
	if err := os.WriteFile(path, a.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	if err := run([]string{mode, path}, &tr, io.Discard); err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	if err := json.Unmarshal(tr.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.InferenceDigest == "" {
		t.Errorf("%v: trace missing digest", gen)
	}
	return res
}

// TestFig: -fig <id> prints exactly that row of experiments.All, rendered.
func TestFig(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-fig", "intro"}, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.All {
		if e.ID == "intro" {
			tab, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if want := experiments.Render(e, tab); got.String() != want {
				t.Errorf("-fig intro printed\n%s\nwant\n%s", got.String(), want)
			}
		}
	}
}

// TestWALRunMatchesInMemory: journaling to a durable on-disk WAL must not
// perturb the aggregate trace, and the log left behind must recover to a
// live network of the final epoch's shape.
func TestWALRunMatchesInMemory(t *testing.T) {
	spec := filepath.Join("testdata", "feedback.load.json")
	dir := t.TempDir()
	var walTrace bytes.Buffer
	if err := run([]string{"-spec", spec, "-wal", dir, "-fsync", "group"}, &walTrace, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "feedback.load.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walTrace.Bytes(), want) {
		t.Error("WAL-on trace differs from the committed in-memory trace")
	}

	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := wal.Open(st, wal.Options{})
	if err != nil {
		t.Fatalf("reopening the run's log: %v", err)
	}
	defer lg.Close()
	net, _, err := lg.Recover()
	if err != nil {
		t.Fatalf("recovering the run's log: %v", err)
	}
	var res sim.Result
	if err := json.Unmarshal(walTrace.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	final := res.Epochs[len(res.Epochs)-1]
	if net.NumPeers() != final.Peers {
		t.Errorf("recovered %d peers, want %d (the final epoch's)", net.NumPeers(), final.Peers)
	}
	if net.Topology().NumEdges() != final.Mappings {
		t.Errorf("recovered %d mappings, want %d", net.Topology().NumEdges(), final.Mappings)
	}

	// An unknown fsync policy is rejected, and so is a second run into the
	// log the first one left.
	checkCLIErrors(t, []cliCase{
		{"unknown sync policy", []string{"-spec", spec, "-wal", t.TempDir(), "-fsync", "sometimes"}},
		{"needs a fresh log", []string{"-spec", spec, "-wal", dir}},
	})
}

// cliCase is one rejected command line and the text its error must hold.
type cliCase struct {
	want string
	args []string
}

// checkCLIErrors requires each command line to fail for its own reason.
func checkCLIErrors(t *testing.T, cases []cliCase) {
	t.Helper()
	for _, c := range cases {
		err := run(c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got error %v, want one containing %q", c.args, err, c.want)
		}
	}
}

// TestCLIErrors: missing inputs, bad files, documents a run would reject and
// flags the chosen mode does not read are reported, each for its own reason.
func TestCLIErrors(t *testing.T) {
	badScenario := filepath.Join(t.TempDir(), "bad.scenario.json")
	if err := os.WriteFile(badScenario, []byte(`{"peers": 3, "unknown": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	scenario := filepath.Join("testdata", "churn-ba.scenario.json")
	spec := filepath.Join("testdata", "small.load.json")
	checkCLIErrors(t, []cliCase{
		{"nothing to do", nil},
		{"no such file", []string{"-scenario", "testdata/no-such-file.json"}},
		{"unknown field", []string{"-scenario", badScenario}},
		{"unknown -fig", []string{"-fig", "no-such-row"}},
		{"exclusive", []string{"-scenario", scenario, "-spec", spec}},
		{"unexpected argument", []string{"-fig", "intro", "extra"}},
		// -gen must not emit a scenario its own -scenario would reject.
		{"unknown strategy", []string{"-gen", "-adv-fraction", "0.2", "-adv-strategy", "bogus"}},
		{"negative volume", []string{"-gen", "-adv-fraction", "0.2", "-adv-volume", "-3"}},
		{"without a positive adversary fraction", []string{"-gen", "-adv-strategy", "sybil"}},
		{"without a positive adversary fraction", []string{"-gen", "-adv-volume", "5"}},
		{"out of [0,1]", []string{"-gen", "-adv-fraction", "1.5"}},
		{"out of [0,1]", []string{"-gen", "-adv-fraction", "-0.5"}},
		// A flag the chosen mode does not read is an error, never ignored.
		{"-perf requires -spec", []string{"-scenario", scenario, "-perf"}},
		{"-transport requires -scenario or -spec", []string{"-fig", "intro", "-transport", "tcp"}},
	})
}

// TestLoadCLIErrors: the load-spec mode reports missing and bad specs, -gen
// -clients refuses to emit a spec -spec would reject, and the flags only a
// load run reads are refused elsewhere.
func TestLoadCLIErrors(t *testing.T) {
	dir := t.TempDir()
	badSpec := filepath.Join(dir, "bad.load.json")
	if err := os.WriteFile(badSpec, []byte(`{"workload": {"unknown": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join("testdata", "small.load.json")
	checkCLIErrors(t, []cliCase{
		{"no such file", []string{"-spec", "testdata/no-such-file.json"}},
		{"unknown field", []string{"-spec", badSpec}},
		// -gen -clients must not emit a spec its own -spec would reject.
		{"pipeline requires feedback", []string{"-gen", "-clients", "2", "-pipeline"}},
		{"feedback noise 0.7", []string{"-gen", "-clients", "2", "-noise", "0.7"}},
		{"hot fraction 1.5", []string{"-gen", "-clients", "2", "-hot", "1.5"}},
		{"negative qps", []string{"-gen", "-clients", "2", "-qps", "-1"}},
		{"without a positive adversary fraction", []string{"-gen", "-clients", "2", "-adv-strategy", "sybil"}},
		{"negative detect worker count", []string{"-gen", "-clients", "2", "-detect-workers", "-1"}},
		{"at least one client", []string{"-gen", "-clients", "0"}},
		// A flag the chosen mode does not read is an error, never ignored.
		{"-pipeline requires -gen -clients N", []string{"-gen", "-pipeline"}},
		{"-fsync requires -wal", []string{"-spec", spec, "-fsync", "bogus"}},
		{"-checkpoint-every requires -wal", []string{"-spec", spec, "-checkpoint-every", "5"}},
		{"-wal requires -spec", []string{"-gen", "-wal", dir}},
		{"-seed requires -gen", []string{"-spec", spec, "-seed", "3"}},
	})
}

// millionScenario is the 1000-peer churny overlay the -million runs serve:
// the seed's generated scenario with its route-only bursts emptied, as
// -gen -clients emits it.
func millionScenario(t *testing.T, seed int64) sim.Scenario {
	t.Helper()
	sc, err := sim.Generate(sim.GenConfig{Seed: seed, Peers: 1000, Epochs: 4, Events: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0
	}
	return sc
}

// millionLoad is the -million runs' workload: 8 clients serve 250,000
// queries per epoch over 64 hot keys. With feedback, 2% of the answers are
// judged at 10% verdict noise and each refresh is bounded at 60 rounds.
func millionLoad(feedback bool) sim.Workload {
	w := sim.Workload{Clients: 8, QueriesPerEpoch: 250_000, HotKeys: 64}
	if feedback {
		w.Feedback, w.FeedbackRate, w.FeedbackNoise, w.FeedbackMaxRounds = true, 0.02, 0.1, 60
	}
	return w
}

// TestMillionQueryAcceptance is the scale acceptance run of the serving
// plane: one load run must sustain at least one million answered queries
// against a 1000-peer network with churn enabled. Gated behind -million.
func TestMillionQueryAcceptance(t *testing.T) {
	if !*million {
		t.Skip("pass -million to run the 1M-query acceptance workload")
	}
	s, err := sim.New(millionScenario(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, perf, err := s.RunWorkload(millionLoad(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed < 1_000_000 {
		t.Fatalf("served %d answers, want >= 1,000,000", res.TotalServed)
	}
	for _, ep := range res.Epochs {
		if ep.Errors != 0 {
			t.Errorf("epoch %d: %d serving errors", ep.Epoch, ep.Errors)
		}
		if ep.Served != ep.Queries {
			t.Errorf("epoch %d: served %d of %d queries", ep.Epoch, ep.Served, ep.Queries)
		}
	}
	t.Logf("served %d answers (%d cache hits) in %v: %.0f answers/sec, p50 %v p99 %v",
		res.TotalServed, res.TotalCacheHits, perf.Elapsed, perf.Throughput, perf.P50, perf.P99)
}

// TestMillionQueryFeedbackAcceptance re-runs the 1M-query workload with the
// feedback loop closed: 2% of answers are judged by the ground-truth oracle
// (10% verdict noise), ingested, incrementally re-detected and republished
// every epoch. Serving throughput must stay within 20% of the feedback-off
// baseline above (both numbers are recorded in PERFORMANCE.md), and the
// posteriors must end strictly better than they started.
func TestMillionQueryFeedbackAcceptance(t *testing.T) {
	if !*million {
		t.Skip("pass -million to run the 1M-query feedback workload")
	}
	s, err := sim.New(millionScenario(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, perf, err := s.RunWorkload(millionLoad(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed < 1_000_000 {
		t.Fatalf("served %d answers, want >= 1,000,000", res.TotalServed)
	}
	first, last := res.Epochs[0].Feedback, res.Epochs[len(res.Epochs)-1].Feedback
	if first == nil || last == nil {
		t.Fatal("missing feedback traces")
	}
	if last.ErrAfter >= first.ErrBefore {
		t.Errorf("posterior error did not improve: %.4f -> %.4f", first.ErrBefore, last.ErrAfter)
	}
	t.Logf("served %d answers in %v: %.0f answers/sec (feedback on), posterior error %.4f -> %.4f",
		res.TotalServed, perf.Elapsed, perf.Throughput, first.ErrBefore, last.ErrAfter)
	t.Logf("serve-only %v: %.0f answers/sec excluding detection barriers",
		perf.ServeElapsed, perf.ServeThroughput)
}

// TestMillionQueryDeltaAcceptance is the acceptance run for delta snapshot
// publication: the same bursty-churn 1M-query workload is served three times
// — feedback off, feedback on with every republication forced full (the
// pre-delta behaviour), and feedback on with delta publication (the default).
// The gate is delta-vs-full, on what is deterministic: the two runs are
// identical except for the publication strategy, so they must serve
// byte-equal answers (run digests), ingest the same observations into the
// same number of feedback factors, and differ only in how the cache pays for
// a republication — the delta run recomputes strictly fewer answers and
// actually revalidates cached ones, the forced-full run never does. Counts
// and digests must also agree across the three attempts of each mode. The
// serve-phase throughput ratios (best of three, wall time inside the client
// phases) are logged, not gated: the cost delta publication removes is the
// cache cold-start after a republication, and it is the benchmark's
// closed_loop workload (answers_per_s, serve.revalidated) that measures it.
// Gated behind -million.
func TestMillionQueryDeltaAcceptance(t *testing.T) {
	if !*million {
		t.Skip("pass -million to run the 1M-query delta acceptance workload")
	}
	modes := []struct {
		name     string
		feedback bool
		full     bool
	}{
		{"feedback off", false, false},
		{"full republish", true, true},
		{"delta republish", true, false},
	}
	rate := make(map[string]float64, len(modes))
	reval := make(map[string]int, len(modes))
	comp := make(map[string]int, len(modes))
	digests := make(map[string]string, len(modes))
	ingested := make(map[string][2]int, len(modes))
	for _, m := range modes {
		// Each mode gets three attempts: the deterministic side (digest,
		// revalidated and computed counts) must agree across them, and the
		// logged rate is the best of the three. The forced collection levels
		// the heap between runs so earlier modes' garbage does not inflate
		// later modes' GC pacing.
		for attempt := 0; attempt < 3; attempt++ {
			runtime.GC()
			sc := millionScenario(t, 1)
			for i := len(sc.Epochs) / 2; i < len(sc.Epochs); i++ {
				// Bursty churn: the trailing epochs are steady-state, where
				// only feedback republication touches the snapshot — the
				// regime delta publication exists for. (A structural change
				// forces a full publication in every mode.)
				sc.Epochs[i].Events = nil
			}
			s, err := sim.New(sc)
			if err != nil {
				t.Fatal(err)
			}
			w := millionLoad(m.feedback)
			w.FullPublish = m.full
			res, perf, err := s.RunWorkload(w, nil)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if res.TotalServed < 1_000_000 {
				t.Fatalf("%s: served %d answers, want >= 1,000,000", m.name, res.TotalServed)
			}
			revalidated, computed := 0, 0
			for _, ep := range res.Epochs {
				if ep.Errors != 0 {
					t.Errorf("%s epoch %d: %d serving errors", m.name, ep.Epoch, ep.Errors)
				}
				revalidated += ep.Revalidated
				computed += ep.Computed
			}
			if attempt > 0 && revalidated != reval[m.name] {
				t.Errorf("%s: revalidated count not deterministic: %d then %d",
					m.name, reval[m.name], revalidated)
			}
			if attempt > 0 && computed != comp[m.name] {
				t.Errorf("%s: computed count not deterministic: %d then %d",
					m.name, comp[m.name], computed)
			}
			if attempt > 0 && res.Digest != digests[m.name] {
				t.Errorf("%s: run digest not deterministic across attempts", m.name)
			}
			reval[m.name] = revalidated
			comp[m.name] = computed
			digests[m.name] = res.Digest
			ingested[m.name] = feedbackCounts(res)
			if perf.ServeThroughput > rate[m.name] {
				rate[m.name] = perf.ServeThroughput
			}
			t.Logf("%-15s %d answers, %.0f answers/sec overall, %.0f answers/sec serve-only, %d revalidated, %d computed",
				m.name, res.TotalServed, perf.Throughput, perf.ServeThroughput, revalidated, computed)
		}
	}
	if reval["full republish"] != 0 {
		t.Errorf("forced-full run revalidated %d answers, want 0", reval["full republish"])
	}
	if reval["delta republish"] == 0 {
		t.Error("delta run never revalidated a cached answer")
	}
	if comp["delta republish"] >= comp["full republish"] {
		t.Errorf("delta run computed %d answers, forced-full computed %d; delta must recompute strictly fewer",
			comp["delta republish"], comp["full republish"])
	}
	if digests["delta republish"] != digests["full republish"] {
		t.Error("served answers diverge between delta and forced-full publication")
	}
	if d, f := ingested["delta republish"], ingested["full republish"]; d != f || d[0] == 0 {
		t.Errorf("delta run ingested %d observations into %d factors, forced-full %d into %d; want equal and non-zero",
			d[0], d[1], f[0], f[1])
	}
	t.Logf("delta/full serve-only ratio %.3fx, delta/off %.3fx (recorded, not gated)",
		rate["delta republish"]/rate["full republish"],
		rate["delta republish"]/rate["feedback off"])
}

// TestMillionQueryPipelinedAcceptance is the acceptance run for the
// pipelined feedback refresh: the 1M-query feedback-on workload is served
// two ways — with the refresh as an epoch barrier, and with it overlapped
// behind the second serving sub-phase. The pair is like-for-like: same
// scenario, same workload, same feedback batches, and the run digests must
// be byte-equal across modes (the pipeline moves the refresh's wall-clock
// placement, never the bytes a client sees); served counts, digests and work
// counters must also agree across the three attempts of each mode. The
// overall-throughput ratio (best of three) is logged, not gated: what hiding
// the refresh buys is a fraction of a second of a run that noise moves by
// more, and it is the benchmark's closed_loop workload (barrier_s) that
// measures it. Gated behind -million.
//
// The scenario is the seed-2 overlay, whose dirty closures converge. (The
// seed-1 overlay the other acceptance runs use carries a frustrated evidence
// loop on the analysis attribute: every refresh runs to the round cap.)
func TestMillionQueryPipelinedAcceptance(t *testing.T) {
	if !*million {
		t.Skip("pass -million to run the 1M-query pipelined workload")
	}
	base := millionLoad(true)
	modes := []struct {
		name     string
		pipeline bool
	}{
		{"barrier", false},
		{"pipelined", true},
	}
	rate := make(map[string]float64, len(modes))
	digests := make(map[string]string, len(modes))
	work := make(map[string]int, len(modes))
	for _, m := range modes {
		for attempt := 0; attempt < 3; attempt++ {
			runtime.GC()
			s, err := sim.New(millionScenario(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			w := base
			w.Pipeline = m.pipeline
			res, perf, err := s.RunWorkload(w, nil)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if res.TotalServed < 1_000_000 {
				t.Fatalf("%s: served %d answers, want >= 1,000,000", m.name, res.TotalServed)
			}
			for _, ep := range res.Epochs {
				if ep.Errors != 0 {
					t.Errorf("%s epoch %d: %d serving errors", m.name, ep.Epoch, ep.Errors)
				}
			}
			if attempt > 0 && res.Digest != digests[m.name] {
				t.Errorf("%s: run digest not deterministic across attempts", m.name)
			}
			if attempt > 0 && perf.Work.MessageUpdates != work[m.name] {
				t.Errorf("%s: refresh work not deterministic: %d then %d message updates",
					m.name, work[m.name], perf.Work.MessageUpdates)
			}
			digests[m.name] = res.Digest
			work[m.name] = perf.Work.MessageUpdates
			if perf.Throughput > rate[m.name] {
				rate[m.name] = perf.Throughput
			}
			t.Logf("%-18s %d answers, %.0f answers/sec overall, %.0f serve-only, %d msg updates, feedback wait %v",
				m.name, res.TotalServed, perf.Throughput, perf.ServeThroughput,
				perf.Work.MessageUpdates, perf.FeedbackWait.Round(1e6))
		}
	}
	if digests["barrier"] != digests["pipelined"] {
		t.Error("served answers diverge between barrier and pipelined modes")
	}
	t.Logf("pipelined/barrier overall ratio %.3fx (recorded, not gated)", rate["pipelined"]/rate["barrier"])
}

// TestMillionQueryWALAcceptance re-runs the 1M-query feedback-on workload
// with every network mutation journaled to a durable on-disk write-ahead
// log under group commit. Gated behind -million; the throughput it logs is
// compared against the in-memory feedback-on run in PERFORMANCE.md (the
// acceptance bar is ≥0.9×).
func TestMillionQueryWALAcceptance(t *testing.T) {
	if !*million {
		t.Skip("pass -million to run the 1M-query WAL workload")
	}
	st, err := wal.NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lg, err := wal.Open(st, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	s, err := sim.NewDurable(millionScenario(t, 1), lg)
	if err != nil {
		t.Fatal(err)
	}
	res, perf, err := s.RunWorkload(millionLoad(true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed < 1_000_000 {
		t.Fatalf("served %d answers, want >= 1,000,000", res.TotalServed)
	}
	for _, ep := range res.Epochs {
		if ep.Errors != 0 {
			t.Errorf("epoch %d: %d serving errors", ep.Epoch, ep.Errors)
		}
	}
	ws := lg.Stats()
	t.Logf("served %d answers in %v: %.0f answers/sec (feedback on, durable WAL)",
		res.TotalServed, perf.Elapsed, perf.Throughput)
	records := ws.Records
	if records == 0 {
		records = 1
	}
	t.Logf("wal: %d records, %d bytes, %d syncs, %d checkpoints, mean commit %dns",
		ws.Records, ws.Bytes, ws.Syncs, ws.Checkpoints, ws.AppendNs/int64(records))
}

// TestMillionQueryTrustAcceptance prices the trust-weighting robustness
// layer on the 1M-query feedback-on workload: the pipelined+residual
// run served two ways — per-reporter trust weighting on (the default) and
// NoTrust (the raw counting baseline). The workload is honest, so trust must
// be an exact no-op on what is deterministic — identical run digests, the
// same observations ingested into the same number of feedback factors, the
// same refresh work — which reduces the comparison to pure overhead: the
// trust run recomputes reporter scores from the accumulated tallies after
// every ingest batch. That overhead is logged as an overall-throughput ratio
// (best of three), not gated: noise moves a 1M-query run by more than the
// bookkeeping costs, and core.ingest_us_per_obs on the benchmark's
// closed_loop workload is where it is measured. Gated behind -million.
func TestMillionQueryTrustAcceptance(t *testing.T) {
	if !*million {
		t.Skip("pass -million to run the 1M-query trust-overhead workload")
	}
	base := millionLoad(true)
	base.Pipeline = true
	modes := []struct {
		name    string
		noTrust bool
	}{
		{"trust-weighted", false},
		{"no-trust", true},
	}
	rate := make(map[string]float64, len(modes))
	digests := make(map[string]string, len(modes))
	ingested := make(map[string][2]int, len(modes))
	work := make(map[string]int, len(modes))
	for _, m := range modes {
		for attempt := 0; attempt < 3; attempt++ {
			runtime.GC()
			sc := millionScenario(t, 2)
			sc.NoTrust = m.noTrust
			s, err := sim.New(sc)
			if err != nil {
				t.Fatal(err)
			}
			res, perf, err := s.RunWorkload(base, nil)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if res.TotalServed < 1_000_000 {
				t.Fatalf("%s: served %d answers, want >= 1,000,000", m.name, res.TotalServed)
			}
			if attempt > 0 && res.Digest != digests[m.name] {
				t.Errorf("%s: run digest not deterministic across attempts", m.name)
			}
			digests[m.name] = res.Digest
			ingested[m.name] = feedbackCounts(res)
			work[m.name] = perf.Work.MessageUpdates
			if perf.Throughput > rate[m.name] {
				rate[m.name] = perf.Throughput
			}
			t.Logf("%-15s %d answers, %.0f answers/sec overall, %.0f serve-only, %d msg updates, feedback wait %v",
				m.name, res.TotalServed, perf.Throughput, perf.ServeThroughput,
				perf.Work.MessageUpdates, perf.FeedbackWait.Round(1e6))
		}
	}
	if digests["trust-weighted"] != digests["no-trust"] {
		t.Error("trust weighting perturbed the honest workload's served bytes")
	}
	if tw, nt := ingested["trust-weighted"], ingested["no-trust"]; tw != nt || tw[0] == 0 {
		t.Errorf("trust run ingested %d observations into %d factors, no-trust %d into %d; want equal and non-zero",
			tw[0], tw[1], nt[0], nt[1])
	}
	if work["trust-weighted"] != work["no-trust"] {
		t.Errorf("trust run spent %d message updates on its refreshes, no-trust %d; want equal on an honest workload",
			work["trust-weighted"], work["no-trust"])
	}
	t.Logf("trust/no-trust overall ratio %.3fx (recorded, not gated)", rate["trust-weighted"]/rate["no-trust"])
}

// feedbackCounts sums what a run's feedback cycles ingested — observations
// and the feedback factors they installed — over every epoch and the
// pipelined final refresh.
func feedbackCounts(res *sim.Result) [2]int {
	var c [2]int
	add := func(ft *sim.FeedbackTrace) {
		if ft != nil {
			c[0] += ft.Observations
			c[1] += ft.NewFactors
		}
	}
	for _, ep := range res.Epochs {
		add(ep.Feedback)
	}
	add(res.FinalRefresh)
	return c
}
