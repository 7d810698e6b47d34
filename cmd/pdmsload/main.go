// Command pdmsload drives the concurrent query-serving plane with a seeded
// workload: N client goroutines serve mixed query templates with hot-key
// skew against the epoch-stamped routing snapshots a churn scenario
// publishes, and the aggregate trace — answers served, cache hit rate,
// per-epoch answer digests — is emitted as reproducible JSON: the same load
// spec always produces the same bytes, however the goroutines interleave
// (see TESTING.md, "Serving plane"). Wall-clock latency and throughput are
// printed separately with -perf, since they are real but not reproducible.
//
// Usage:
//
//	pdmsload -spec load.json               # run, trace to stdout
//	pdmsload -spec load.json -out t.json   # run, trace to a file
//	pdmsload -spec load.json -perf         # also print the latency table (stderr)
//	pdmsload -gen -seed 7 -peers 1000 -queries 250000 -clients 8
//	                                       # generate a load spec instead
//	pdmsload -gen -seed 5 -feedback -noise 0.1
//	                                       # ... with the feedback loop closed
//	pdmsload -gen -seed 5 -feedback -pipeline
//	                                       # ... with the refresh overlapped
//	                                       # with serving instead of a barrier
//	pdmsload -spec load.json -wal ./wal -fsync group -perf
//	                                       # journal every mutation to a durable
//	                                       # write-ahead log (fsync: always,
//	                                       # group or off) and report its cost
//
// A load spec is a churn scenario (the same format cmd/pdmssim replays)
// plus a workload section: client count, queries per epoch, hot-key skew,
// QPS cap, cache size, store seeding parameters, and optionally the
// result-feedback loop (every answer is judged by a ground-truth oracle
// with configurable verdict noise, the observations become evidence, and a
// bounded incremental re-detection republishes the snapshot per epoch — the
// per-epoch trace then carries a posterior-convergence record).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/sim"
	"repro/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdmsload: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pdmsload", flag.ContinueOnError)
	specPath := fs.String("spec", "", "load spec file to run")
	out := fs.String("out", "", "output file for the trace (default stdout)")
	perf := fs.Bool("perf", false, "print the latency/throughput table to stderr after the run")
	gen := fs.Bool("gen", false, "generate a load spec instead of running one")
	seed := fs.Int64("seed", 1, "generation seed")
	peers := fs.Int("peers", 0, "generation: initial peer count")
	epochs := fs.Int("epochs", 0, "generation: number of epochs")
	events := fs.Int("events", 0, "generation: churn events per epoch (-1 for a static scenario)")
	clients := fs.Int("clients", 0, "generation: concurrent serving clients")
	queries := fs.Int("queries", 0, "generation: queries served per epoch")
	hot := fs.Float64("hot", 0, "generation: hot-key traffic fraction")
	qps := fs.Int("qps", 0, "generation: aggregate QPS cap (0 = unlimited)")
	cache := fs.Int("cache", 0, "generation: server result-cache size")
	fb := fs.Bool("feedback", false, "generation: close the loop (serve → feedback → incremental re-detect → republish)")
	noise := fs.Float64("noise", 0, "generation: feedback verdict flip probability (with -feedback)")
	pipeline := fs.Bool("pipeline", false, "generation: overlap the feedback refresh with serving instead of a barrier (with -feedback)")
	workers := fs.Int("detect-workers", 0, "generation: component-parallel detection worker count (0 = serial)")
	advFraction := fs.Float64("adv-fraction", 0, "generation: fraction of peers recruited into an adversarial clique")
	advStrategy := fs.String("adv-strategy", "", "generation: adversarial strategy (poison, selfpromote or sybil; requires -adv-fraction)")
	advVolume := fs.Int("adv-volume", 0, "generation: fabricated observations per adversary per target per epoch (0 = default)")
	noTrust := fs.Bool("no-trust", false, "generation: disable per-reporter trust weighting (the vulnerable baseline)")
	walDir := fs.String("wal", "", "journal every network mutation to a write-ahead log in this directory")
	fsync := fs.String("fsync", "group", "WAL fsync policy: always, group or off (with -wal)")
	ckptEvery := fs.Int("checkpoint-every", 0, "WAL records between checkpoints (0 = default, negative disables; with -wal)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var payload any
	switch {
	case *gen:
		sc, err := sim.Generate(sim.GenConfig{
			Seed:        *seed,
			Peers:       *peers,
			Epochs:      *epochs,
			Events:      *events,
			AdvFraction: *advFraction,
			AdvStrategy: *advStrategy,
			AdvVolume:   *advVolume,
			NoTrust:     *noTrust,
		})
		if err != nil {
			return err
		}
		sc.Epochs = trimQueryBursts(sc.Epochs)
		sc.DetectWorkers = *workers
		payload = sim.LoadSpec{
			Scenario: sc,
			Workload: sim.Workload{
				Seed:            *seed,
				Clients:         *clients,
				QueriesPerEpoch: *queries,
				Hot:             *hot,
				QPS:             *qps,
				CacheSize:       *cache,
				Feedback:        *fb,
				FeedbackNoise:   *noise,
				Pipeline:        *pipeline,
			},
		}
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		spec, err := sim.ParseLoadSpec(data)
		if err != nil {
			return err
		}
		var s *sim.Simulation
		var lg *wal.Log
		if *walDir != "" {
			st, err := wal.NewDirStorage(*walDir)
			if err != nil {
				return err
			}
			policy, err := wal.ParseSyncPolicy(*fsync)
			if err != nil {
				return err
			}
			lg, err = wal.Open(st, wal.Options{
				Sync:            policy,
				CheckpointEvery: *ckptEvery,
				Logf:            log.Printf,
			})
			if err != nil {
				return err
			}
			defer lg.Close()
			s, err = sim.NewDurable(spec.Scenario, lg)
			if err != nil {
				return err
			}
		} else {
			s, err = sim.New(spec.Scenario)
			if err != nil {
				return err
			}
		}
		res, p, err := s.RunWorkload(spec.Workload, nil)
		if err != nil {
			return err
		}
		if lg != nil {
			if err := lg.Sync(); err != nil {
				return err
			}
		}
		if *perf {
			printPerf(stderr, res, p)
			if lg != nil {
				printWALStats(stderr, lg.Stats())
			}
		}
		payload = res
	default:
		return fmt.Errorf("nothing to do: pass -spec <file> or -gen (see -h)")
	}

	enc, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out != "" {
		return os.WriteFile(*out, enc, 0o644)
	}
	_, err = stdout.Write(enc)
	return err
}

// trimQueryBursts zeroes the scenario's route-only query bursts. A served run
// still routes them — they are the zero-client form of serving, each route
// held to the reference walk — but in a load spec the clients serve the
// queries, so a generated spec leaves the burst empty.
func trimQueryBursts(eps []sim.Epoch) []sim.Epoch {
	for i := range eps {
		eps[i].Queries = 0
	}
	return eps
}

// printPerf renders the wall-clock table (stderr; never part of the trace).
func printPerf(w io.Writer, res *sim.WorkloadResult, p *sim.WorkloadPerf) {
	fmt.Fprintf(w, "served     %d answers in %v (%.0f answers/sec)\n", p.Served, p.Elapsed.Round(1e6), p.Throughput)
	fmt.Fprintf(w, "serve-only %v (%.0f answers/sec excluding detection barriers)\n", p.ServeElapsed.Round(1e6), p.ServeThroughput)
	fmt.Fprintf(w, "latency    p50 %v  p95 %v  p99 %v  max %v\n", p.P50, p.P95, p.P99, p.Max)
	revalidated, computed := 0, 0
	for _, ep := range res.Epochs {
		revalidated += ep.Revalidated
		computed += ep.Computed
	}
	fmt.Fprintf(w, "cache      %d hits  %d revalidated  %d computed\n", res.TotalCacheHits, revalidated, computed)
	if wk := p.Work; wk.MessageUpdates > 0 || wk.FactorUpdates > 0 {
		fmt.Fprintf(w, "refresh    %d message updates  %d factor rebinds  %d components over %d refreshes (feedback wait %v)\n",
			wk.MessageUpdates, wk.FactorUpdates, wk.Components, countRefreshes(res), p.FeedbackWait.Round(1e6))
	}
}

// countRefreshes counts the feedback re-detections of the run (per-epoch
// refreshes plus the pipelined final drain).
func countRefreshes(res *sim.WorkloadResult) int {
	n := 0
	for _, ep := range res.Epochs {
		if ep.Feedback != nil {
			n++
		}
	}
	if res.FinalRefresh != nil {
		n++
	}
	return n
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
