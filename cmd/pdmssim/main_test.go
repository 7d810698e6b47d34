package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// transport lets CI run the golden suite as a matrix over message
// substrates: `go test ./cmd/pdmssim -transport tcp` must reproduce the
// same committed bytes as the default, because traces do not depend on the
// transport.
var transport = flag.String("transport", "", "replay golden scenarios over this transport (sim, sharded, tcp)")

// replayArgs builds the CLI arguments for one scenario honoring the
// -transport matrix flag.
func replayArgs(scenario string) []string {
	args := []string{"-scenario", scenario}
	if *transport != "" {
		args = append(args, "-transport", *transport)
	}
	return args
}

// TestGoldenTraces replays the committed scenarios and asserts the traces
// reproduce bit-for-bit: every posterior, message count and digest must
// match the committed bytes exactly. Regenerate with `go test -update`
// after an intentional engine change, and review the diff.
func TestGoldenTraces(t *testing.T) {
	scenarios, err := filepath.Glob(filepath.Join("testdata", "*.scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) < 3 {
		t.Fatalf("found %d scenarios under testdata/, want at least 3", len(scenarios))
	}
	for _, sc := range scenarios {
		name := strings.TrimSuffix(filepath.Base(sc), ".scenario.json")
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(replayArgs(sc), &got); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name+".trace.json")
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
			// double as a record that the invariant suite held.
			if bytes.Contains(want, []byte(`"violations": [`)) {
				t.Errorf("golden trace %s contains invariant violations", name)
			}
		})
	}
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
			if err := run([]string{"-scenario", sc, "-transport", "sim"}, &ref); err != nil {
				t.Fatal(err)
			}
			variants := [][]string{
				{"-scenario", sc, "-transport", "sharded"},
				{"-scenario", sc, "-transport", "sharded", "-shards", "3"},
				{"-scenario", sc, "-transport", "tcp"},
			}
			for _, args := range variants {
				var got bytes.Buffer
				if err := run(args, &got); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				if !bytes.Equal(got.Bytes(), ref.Bytes()) {
					t.Errorf("trace with %v differs from the simulator trace", args[2:])
				}
			}
		})
	}
}

// TestGenerateReproducible: -gen emits identical scenarios for a seed and
// the generated scenario replays cleanly end to end.
func TestGenerateReproducible(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-gen", "-seed", "9", "-peers", "10"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-gen", "-seed", "9", "-peers", "10"}, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("generation is not reproducible")
	}
	dir := t.TempDir()
	scPath := filepath.Join(dir, "s.json")
	if err := os.WriteFile(scPath, a.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	if err := run([]string{"-scenario", scPath}, &tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tr.Bytes(), []byte(`"inferenceDigest"`)) {
		t.Error("replayed trace missing digest")
	}
}

// TestCLIErrors: missing inputs and bad files are reported.
func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no arguments: want error")
	}
	if err := run([]string{"-scenario", "testdata/no-such-file.json"}, &out); err == nil {
		t.Error("missing file: want error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"peers": 3, "unknown": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", bad}, &out); err == nil {
		t.Error("unknown scenario field: want error")
	}
	// -gen must not emit a scenario its own -scenario would reject.
	for _, args := range [][]string{
		{"-adv-fraction", "0.2", "-adv-strategy", "bogus"},
		{"-adv-fraction", "0.2", "-adv-volume", "-3"},
		{"-adv-strategy", "sybil"},
		{"-adv-volume", "5"},
		{"-adv-fraction", "1.5"},
		{"-adv-fraction", "-0.5"},
	} {
		if err := run(append([]string{"-gen"}, args...), &out); err == nil {
			t.Errorf("-gen %v: want error", args)
		}
	}
}
