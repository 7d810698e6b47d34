package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/netio"
	"repro/internal/paper"
)

func runIntro(args ...string) (string, error) {
	var in, out bytes.Buffer
	if err := netio.Save(&in, paper.IntroNetwork()); err != nil {
		return "", err
	}
	err := run(args, &in, &out)
	return out.String(), err
}

// The report is a function of the description alone. The intro network is
// the sharp case: m24/Creator and m24/CreatedOn tie on posterior and mapping,
// so an order that stops there prints them in map-iteration order.
func TestReportIsReproducible(t *testing.T) {
	for _, args := range [][]string{{"-in", "-"}, {"-in", "-", "-json"}, {"-in", "-", "-theta", "1.01"}} {
		first, err := runIntro(args...)
		if err != nil || !strings.Contains(first, "m24") {
			t.Fatalf("%v: err %v, the faulty mapping m24 is not reported:\n%s", args, err, first)
		}
		for i := 1; i < 20; i++ {
			if out, _ := runIntro(args...); out != first {
				t.Fatalf("%v: run %d differs from run 0:\n%s\nvs\n%s", args, i, out, first)
			}
		}
	}
}

// Probe discovery is fine-grained only: -coarse used to be dropped silently.
func TestRejectsProbesWithCoarse(t *testing.T) {
	out, err := runIntro("-in", "-", "-probes", "-coarse")
	if err == nil || !strings.Contains(err.Error(), "-probes") || !strings.Contains(err.Error(), "-coarse") {
		t.Errorf("err %v, want a usage error naming both flags; output:\n%s", err, out)
	}
}

// A NaN Δ is rejected on both discovery paths: it used to poison detection
// into a one-round "converged" run that flagged nothing, or, with -probes, to
// be replaced by the schema-derived Δ.
func TestRejectsNaNDelta(t *testing.T) {
	for _, args := range [][]string{{"-in", "-", "-delta", "NaN"}, {"-in", "-", "-delta", "NaN", "-probes"}} {
		out, err := runIntro(args...)
		if err == nil || !strings.Contains(err.Error(), "delta") {
			t.Errorf("%v: err %v, want a delta range error; output:\n%s", args, err, out)
		}
	}
}
