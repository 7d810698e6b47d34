// Command pdmsbench prints the reproduction of the paper's evaluation: for
// each row of experiments.All its title, its ASCII figure if it has one, its
// table and the claim it is held to. The rows, their IDs and their
// parameters live in internal/experiments, whose tests check every claim on
// exactly what is printed here and pin every cell in REPRODUCTION.json.
//
// Usage:
//
//	pdmsbench -fig all    # every row, in registry order
//	pdmsbench -fig <id>   # one row; -h lists the IDs
//
// Performance is measured by bench/ (see BENCHMARK.json and PERFORMANCE.md),
// not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdmsbench: ")
	ids := "all"
	for _, e := range experiments.All {
		ids += ", " + e.ID
	}
	fig := flag.String("fig", "all", "experiment to run: "+ids)
	flag.Parse()

	known := *fig == "all"
	for _, e := range experiments.All {
		if *fig != "all" && *fig != e.ID {
			continue
		}
		known = true
		t, err := e.Run()
		if err != nil {
			log.Fatalf("-fig %s: %v", e.ID, err)
		}
		fmt.Print(experiments.Render(e, t))
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
}
