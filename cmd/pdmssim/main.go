// Command pdmssim replays declarative PDMS churn scenarios and emits
// reproducible JSON traces: the same scenario file always produces the same
// bytes, on any machine — which is what the golden-trace regression tests
// under testdata/ pin down (see TESTING.md).
//
// Usage:
//
//	pdmssim -scenario s.json                # replay, trace to stdout
//	pdmssim -scenario s.json -out t.json    # replay, trace to a file
//	pdmssim -scenario s.json -transport tcp # replay over the TCP loopback
//	pdmssim -gen -seed 7 -peers 50          # generate a scenario instead
//
// -transport overrides the scenario's message substrate (sim, sharded or
// tcp); the trace is identical whichever transport carries the messages,
// which the cross-transport differential test pins down.
//
// A scenario describes an initial overlay (topology, size, corruption) and a
// timeline of epochs: churn events (peer join/leave, mapping add/remove/
// corrupt/fix), per-epoch message loss and query bursts. Replay re-runs
// erroneous-mapping detection incrementally after every epoch and checks the
// invariant suite; violations appear in the trace.
//
// The trace is a sim.Result, the layout cmd/pdmsload emits too: one record
// per epoch (discovery, detection, routing, the snapshot published, crash,
// feedback, violations) and the final state's inferenceDigest. A replay has
// no clients, so it carries none of the serving fields and no answer digest.
// -gen rejects what replay would reject.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdmssim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdmssim", flag.ContinueOnError)
	scenarioPath := fs.String("scenario", "", "scenario file to replay")
	out := fs.String("out", "", "output file (default stdout)")
	transport := fs.String("transport", "", "override the scenario's transport: sim, sharded or tcp (the trace must not depend on it)")
	shards := fs.Int("shards", 0, "override the sharded transport's worker count (0 = GOMAXPROCS)")
	gen := fs.Bool("gen", false, "generate a scenario instead of replaying one")
	seed := fs.Int64("seed", 1, "generation seed")
	peers := fs.Int("peers", 0, "generation: initial peer count")
	epochs := fs.Int("epochs", 0, "generation: number of epochs")
	events := fs.Int("events", 0, "generation: churn events per epoch (-1 for a static scenario)")
	queries := fs.Int("queries", 0, "generation: query burst per epoch")
	psend := fs.Float64("psend", 0, "generation: per-epoch message delivery probability (0 = reliable)")
	verify := fs.Bool("verify", false, "generation: enable the scratch differential every epoch")
	advFraction := fs.Float64("adv-fraction", 0, "generation: fraction of peers recruited into an adversarial clique")
	advStrategy := fs.String("adv-strategy", "", "generation: adversarial strategy (poison, selfpromote or sybil; requires -adv-fraction)")
	advVolume := fs.Int("adv-volume", 0, "generation: fabricated observations per adversary per target per epoch (0 = default)")
	noTrust := fs.Bool("no-trust", false, "generation: disable per-reporter trust weighting (the vulnerable baseline)")
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
	case *scenarioPath != "":
		data, err := os.ReadFile(*scenarioPath)
		if err != nil {
			return err
		}
		sc, err := sim.ParseScenario(data)
		if err != nil {
			return err
		}
		if *transport != "" {
			sc.Transport = *transport
		}
		if *shards != 0 {
			sc.Shards = *shards
		}
		s, err := sim.New(sc)
		if err != nil {
			return err
		}
		res, err := s.Run()
		if err != nil {
			return err
		}
		payload = res
	default:
		return fmt.Errorf("nothing to do: pass -scenario <file> or -gen (see -h)")
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
