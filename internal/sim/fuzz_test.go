package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioDecode fuzzes the two declarative input surfaces of the
// simulator — Scenario and LoadSpec JSON, adversary declarations included —
// and pins three properties: parsing never panics, whatever the parser
// accepts survives validation without panicking, and every accepted value
// round-trips canonically (marshal → reparse → marshal is byte-identical,
// so a scenario file normalized once is a fixed point). CI runs this for 30
// seconds as a smoke step; run it longer locally with:
//
//	go test ./internal/sim -fuzz FuzzScenarioDecode -fuzztime 5m
func FuzzScenarioDecode(f *testing.F) {
	// Seed with every committed attack scenario, a load spec, and a few
	// hand-broken inputs so the fuzzer starts from the adversary fields and
	// the error paths alike.
	for _, pattern := range []string{
		"../../cmd/pdmssim/testdata/*.scenario.json",
		"../../cmd/pdmssim/testdata/*.load.json",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, fn := range files {
			data, err := os.ReadFile(fn)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"adversaries":[{"strategy":"sybil","peers":["p0"],"volume":-1}]}`))
	f.Add([]byte(`{"adversaries":[{"strategy":"selfpromote","targets":["m0"]}]}`))
	f.Add([]byte(`{"epochs":[{"events":[{"op":"flashcrowd","count":0}]}]}`))
	f.Add([]byte(`{"peers":3,"noTrust":true,"epochs":null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if sc, err := ParseScenario(data); err == nil {
			sc.withDefaults().check() // must not panic, errors are fine
			roundTrip(t, sc, func(b []byte) (any, error) { return ParseScenario(b) })
		}
		if spec, err := ParseLoadSpec(data); err == nil {
			spec.Scenario.withDefaults().check()
			roundTrip(t, spec, func(b []byte) (any, error) { return ParseLoadSpec(b) })
		}
	})
}

// roundTrip marshals an accepted value, reparses it, and requires the second
// marshal to be byte-identical to the first.
func roundTrip(t *testing.T, v any, parse func([]byte) (any, error)) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted value does not marshal: %v", err)
	}
	back, err := parse(first)
	if err != nil {
		t.Fatalf("canonical form no longer parses: %v\n%s", err, first)
	}
	second, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("reparsed value does not marshal: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not canonical:\nfirst:  %s\nsecond: %s", first, second)
	}
}
