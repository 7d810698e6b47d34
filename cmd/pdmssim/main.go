// Command pdmssim is the one driver of the simulator and of the paper's
// reproduction. It replays churn scenarios, runs load specs against the
// concurrent query-serving plane, prints the evaluation, and generates the
// two documents it runs. A trace is reproducible JSON: the same scenario or
// load spec always produces the same bytes, on any machine, over any
// transport and however the client goroutines interleave — which is what the
// golden traces under testdata/ pin down (see TESTING.md).
//
// Usage:
//
//	pdmssim -scenario s.json                # replay, trace to stdout
//	pdmssim -scenario s.json -transport tcp # replay over the TCP loopback
//	pdmssim -spec load.json -out t.json     # serve a load spec, trace to a file
//	pdmssim -spec load.json -perf           # also print the latency table (stderr)
//	pdmssim -spec load.json -wal ./wal -fsync group -perf
//	                                        # journal every mutation to a durable
//	                                        # write-ahead log (fsync: always,
//	                                        # group or off) and report its cost
//	pdmssim -fig all                        # every reproduction row, in order
//	pdmssim -fig <id>                       # one row; -h lists the IDs
//	pdmssim -gen -seed 7 -peers 50          # generate a scenario
//	pdmssim -gen -seed 7 -peers 1000 -queries 250000 -clients 8
//	                                        # generate a load spec
//	pdmssim -gen -seed 5 -clients 4 -feedback -noise 0.1 -pipeline
//	                                        # ... with the feedback loop closed
//	                                        # and its refresh overlapped with
//	                                        # serving instead of a barrier
//
// A scenario describes an initial overlay (topology, size, corruption) and a
// timeline of epochs: churn events, per-epoch message loss and route-only
// query bursts. Every epoch re-runs erroneous-mapping detection
// incrementally and checks the invariant suite; violations appear in the
// trace. A load spec is a scenario plus a workload: client count, queries per
// epoch, hot-key skew, QPS cap, cache size, store seeding and optionally the
// result-feedback loop (every answer judged by a ground-truth oracle, the
// verdicts ingested as evidence, a bounded re-detection republishing the
// snapshot each epoch). Both runs emit one sim.Result: a record per epoch and
// the final state's inferenceDigest; a replay has no clients, so it carries
// none of the serving fields and no answer digest. -perf's wall-clock latency
// and throughput are real but not reproducible, so they never enter a trace.
//
// -transport overrides the run's message substrate (sim, sharded or tcp); the
// trace does not depend on it. -fig prints experiments.All, the rows
// internal/experiments checks and REPRODUCTION.json pins. -gen emits a
// scenario, or with -clients N a load spec: -queries is the route-only burst
// of a scenario and the per-epoch client quota of a load spec, whose
// route-only bursts stay empty. -gen rejects what -scenario or -spec would
// reject, and a flag the chosen mode does not read is an error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdmssim: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	ids := "all"
	for _, e := range experiments.All {
		ids += ", " + e.ID
	}
	fs := flag.NewFlagSet("pdmssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioPath := fs.String("scenario", "", "scenario file to replay")
	specPath := fs.String("spec", "", "load spec file to run")
	fig := fs.String("fig", "", "reproduction rows to print: "+ids)
	gen := fs.Bool("gen", false, "generate a scenario, or with -clients a load spec")
	out := fs.String("out", "", "output file (default stdout)")
	transport := fs.String("transport", "", "override the run's transport: sim, sharded or tcp (the trace must not depend on it)")
	shards := fs.Int("shards", 0, "override the sharded transport's worker count (0 = GOMAXPROCS)")
	perf := fs.Bool("perf", false, "print the latency/throughput table to stderr after the run")
	walDir := fs.String("wal", "", "journal every network mutation to a write-ahead log in this directory")
	fsync := fs.String("fsync", "group", "WAL fsync policy: always, group or off")
	ckptEvery := fs.Int("checkpoint-every", 0, "WAL records between checkpoints (0 = default, negative disables)")
	seed := fs.Int64("seed", 1, "generation seed")
	peers := fs.Int("peers", 0, "generation: initial peer count")
	epochs := fs.Int("epochs", 0, "generation: number of epochs")
	events := fs.Int("events", 0, "generation: churn events per epoch (-1 for a static scenario)")
	queries := fs.Int("queries", 0, "generation: route-only query burst per epoch, or with -clients the queries served per epoch")
	psend := fs.Float64("psend", 0, "generation: per-epoch message delivery probability (0 = reliable)")
	verify := fs.Bool("verify", false, "generation: enable the scratch differential every epoch")
	advFraction := fs.Float64("adv-fraction", 0, "generation: fraction of peers recruited into an adversarial clique")
	advStrategy := fs.String("adv-strategy", "", "generation: adversarial strategy (poison, selfpromote or sybil; requires -adv-fraction)")
	advVolume := fs.Int("adv-volume", 0, "generation: fabricated observations per adversary per target per epoch (0 = default)")
	noTrust := fs.Bool("no-trust", false, "generation: disable per-reporter trust weighting (the vulnerable baseline)")
	clients := fs.Int("clients", 0, "generation: concurrent serving clients (emits a load spec)")
	hot := fs.Float64("hot", 0, "generation: hot-key traffic fraction")
	qps := fs.Int("qps", 0, "generation: aggregate QPS cap (0 = unlimited)")
	cache := fs.Int("cache", 0, "generation: server result-cache size")
	fb := fs.Bool("feedback", false, "generation: close the loop (serve → feedback → incremental re-detect → republish)")
	noise := fs.Float64("noise", 0, "generation: feedback verdict flip probability (with -feedback)")
	pipeline := fs.Bool("pipeline", false, "generation: overlap the feedback refresh with serving instead of a barrier (with -feedback)")
	workers := fs.Int("detect-workers", 0, "generation: component-parallel detection worker count (0 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	mode := ""
	for _, m := range []struct {
		name string
		on   bool
	}{{"scenario", *scenarioPath != ""}, {"spec", *specPath != ""}, {"fig", *fig != ""}, {"gen", *gen}} {
		if m.on && mode != "" {
			return fmt.Errorf("-%s and -%s are exclusive", mode, m.name)
		}
		if m.on {
			mode = m.name
		}
	}
	if mode == "" {
		return errors.New("nothing to do: pass -scenario, -spec, -fig or -gen (see -h)")
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// A flag given without what it needs would be silently ignored, so it is
	// an error.
	for _, sc := range []struct {
		flags string
		ok    bool
		needs string
	}{
		{"transport shards", mode == "scenario" || mode == "spec", "-scenario or -spec"},
		{"perf wal", mode == "spec", "-spec"},
		{"fsync checkpoint-every", set["wal"], "-wal"},
		{"seed peers epochs events queries psend verify adv-fraction adv-strategy adv-volume no-trust clients", mode == "gen", "-gen"},
		{"hot qps cache feedback noise pipeline detect-workers", mode == "gen" && set["clients"], "-gen -clients N"},
	} {
		for _, name := range strings.Fields(sc.flags) {
			if set[name] && !sc.ok {
				return fmt.Errorf("-%s requires %s", name, sc.needs)
			}
		}
	}

	var payload any
	switch mode {
	case "fig":
		known := *fig == "all"
		for _, e := range experiments.All {
			known = known || *fig == e.ID
		}
		if !known {
			return fmt.Errorf("unknown -fig %q (want %s)", *fig, ids)
		}
		// Each row is printed as soon as it is computed.
		w, done := stdout, func() error { return nil }
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w, done = f, f.Close
		}
		for _, e := range experiments.All {
			if *fig != "all" && *fig != e.ID {
				continue
			}
			t, err := e.Run()
			if err != nil {
				return fmt.Errorf("-fig %s: %v", e.ID, err)
			}
			if _, err := io.WriteString(w, experiments.Render(e, t)); err != nil {
				return err
			}
		}
		return done()
	case "gen":
		sc, err := sim.Generate(sim.GenConfig{
			Seed:        *seed,
			Peers:       *peers,
			Epochs:      *epochs,
			Events:      *events,
			Queries:     *queries,
			PSend:       *psend,
			Verify:      *verify,
			AdvFraction: *advFraction,
			AdvStrategy: *advStrategy,
			AdvVolume:   *advVolume,
			NoTrust:     *noTrust,
		})
		if err != nil {
			return err
		}
		payload = sc
		if set["clients"] {
			if *clients < 1 {
				return fmt.Errorf("-clients %d: a load spec needs at least one client", *clients)
			}
			// The clients serve the queries, so the route-only bursts (the
			// zero-client form of serving) stay empty.
			for i := range sc.Epochs {
				sc.Epochs[i].Queries = 0
			}
			sc.DetectWorkers = *workers
			w := sim.Workload{
				Seed:            *seed,
				Clients:         *clients,
				QueriesPerEpoch: *queries,
				Hot:             *hot,
				QPS:             *qps,
				CacheSize:       *cache,
				Feedback:        *fb,
				FeedbackNoise:   *noise,
				Pipeline:        *pipeline,
			}
			if err := w.Check(sc); err != nil {
				return err
			}
			payload = sim.LoadSpec{Scenario: sc, Workload: w}
		}
	default:
		path := *scenarioPath
		if mode == "spec" {
			path = *specPath
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var spec sim.LoadSpec
		if mode == "scenario" {
			spec.Scenario, err = sim.ParseScenario(data)
		} else {
			spec, err = sim.ParseLoadSpec(data)
		}
		if err != nil {
			return err
		}
		if *transport != "" {
			spec.Scenario.Transport = *transport
		}
		if *shards != 0 {
			spec.Scenario.Shards = *shards
		}
		var s *sim.Simulation
		if mode == "spec" {
			payload, err = serve(spec, *walDir, *fsync, *ckptEvery, *perf, stderr)
		} else if s, err = sim.New(spec.Scenario); err == nil {
			payload, err = s.Run()
		}
		if err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	return write(*out, stdout, append(enc, '\n'))
}

// write puts a run's output into the -out file, or onto stdout without one.
func write(path string, stdout io.Writer, b []byte) error {
	if path != "" {
		return os.WriteFile(path, b, 0o644)
	}
	_, err := stdout.Write(b)
	return err
}

// serve runs a load spec. It journals to a durable write-ahead log in walDir
// when that is set, and prints the wall-clock table to stderr with perf.
func serve(spec sim.LoadSpec, walDir, fsync string, ckptEvery int, perf bool, stderr io.Writer) (*sim.Result, error) {
	var s *sim.Simulation
	var lg *wal.Log
	var err error
	if walDir == "" {
		s, err = sim.New(spec.Scenario)
	} else if lg, err = openWAL(walDir, fsync, ckptEvery); err == nil {
		defer lg.Close()
		s, err = sim.NewDurable(spec.Scenario, lg)
	}
	if err != nil {
		return nil, err
	}
	res, p, err := s.RunWorkload(spec.Workload, nil)
	if err != nil {
		return nil, err
	}
	if lg != nil {
		if err := lg.Sync(); err != nil {
			return nil, err
		}
	}
	if perf {
		printPerf(stderr, res, p)
		if lg != nil {
			printWALStats(stderr, lg.Stats())
		}
	}
	return res, nil
}

// openWAL opens the write-ahead log in dir with the given fsync policy.
func openWAL(dir, fsync string, ckptEvery int) (*wal.Log, error) {
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return nil, err
	}
	return wal.Open(st, wal.Options{Sync: policy, CheckpointEvery: ckptEvery, Logf: log.Printf})
}

// printPerf renders the wall-clock table (stderr; never part of the trace).
func printPerf(w io.Writer, res *sim.Result, p *sim.WorkloadPerf) {
	fmt.Fprintf(w, "served     %d answers in %v (%.0f answers/sec)\n", p.Served, p.Elapsed.Round(1e6), p.Throughput)
	fmt.Fprintf(w, "serve-only %v (%.0f answers/sec excluding detection barriers)\n", p.ServeElapsed.Round(1e6), p.ServeThroughput)
	fmt.Fprintf(w, "latency    p50 %v  p95 %v  p99 %v  max %v\n", p.P50, p.P95, p.P99, p.Max)
	// refreshes counts the feedback re-detections: per-epoch refreshes plus
	// the pipelined final drain.
	revalidated, computed, refreshes := 0, 0, 0
	for _, ep := range res.Epochs {
		revalidated += ep.Revalidated
		computed += ep.Computed
		if ep.Feedback != nil {
			refreshes++
		}
	}
	if res.FinalRefresh != nil {
		refreshes++
	}
	fmt.Fprintf(w, "cache      %d hits  %d revalidated  %d computed\n", res.TotalCacheHits, revalidated, computed)
	if wk := p.Work; wk.MessageUpdates > 0 || wk.FactorUpdates > 0 {
		fmt.Fprintf(w, "refresh    %d message updates  %d factor rebinds  %d components over %d refreshes (feedback wait %v)\n",
			wk.MessageUpdates, wk.FactorUpdates, wk.Components, refreshes, p.FeedbackWait.Round(1e6))
	}
}

// printWALStats renders the durability-side counters (stderr, with -perf).
func printWALStats(w io.Writer, st wal.Stats) {
	mean := int64(0)
	if st.Records > 0 {
		mean = st.AppendNs / int64(st.Records)
	}
	fmt.Fprintf(w, "wal        %d records, %d bytes, %d syncs, %d checkpoints (%d failed)\n",
		st.Records, st.Bytes, st.Syncs, st.Checkpoints, st.CheckpointFailures)
	fmt.Fprintf(w, "wal commit mean %dns  max %dns\n", mean, st.MaxAppendNs)
}
