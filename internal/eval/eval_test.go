package eval

import (
	"math"
	"strings"
	"testing"
)

func TestPrecisionCurve(t *testing.T) {
	items := []Judgment{
		{Posterior: 0.1, Faulty: true},
		{Posterior: 0.2, Faulty: true},
		{Posterior: 0.3, Faulty: false},
		{Posterior: 0.9, Faulty: true},
		{Posterior: 0.95, Faulty: false},
	}
	pts := PrecisionCurve(items, []float64{0.05, 0.25, 0.5, 1.0})
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	// θ=0.05: nothing detected → precision 1 by convention.
	if pts[0].Detected != 0 || pts[0].Precision != 1 || pts[0].Recall != 0 {
		t.Errorf("θ=0.05 point = %+v", pts[0])
	}
	// θ=0.25: two detected, both faulty.
	if pts[1].Detected != 2 || pts[1].Precision != 1 || math.Abs(pts[1].Recall-2.0/3.0) > 1e-12 {
		t.Errorf("θ=0.25 point = %+v", pts[1])
	}
	// θ=0.5: three detected, two faulty.
	if pts[2].Detected != 3 || math.Abs(pts[2].Precision-2.0/3.0) > 1e-12 {
		t.Errorf("θ=0.5 point = %+v", pts[2])
	}
	// θ=1: everything detected.
	if pts[3].Detected != 5 || math.Abs(pts[3].Precision-3.0/5.0) > 1e-12 || pts[3].Recall != 1 {
		t.Errorf("θ=1 point = %+v", pts[3])
	}
}

func TestPrecisionCurveNoFaulty(t *testing.T) {
	pts := PrecisionCurve([]Judgment{{Posterior: 0.1}}, []float64{0.5})
	if pts[0].Recall != 0 {
		t.Errorf("recall with no faulty items = %v", pts[0].Recall)
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"col", "value"}, [][]string{{"a", "1"}, {"bbbb", "22"}})
	if !strings.Contains(out, "col") || !strings.Contains(out, "bbbb") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
	// A row wider than the header is printed in full.
	if out := Table([]string{"a"}, [][]string{{"x", "y"}}); !strings.Contains(out, "x  y") {
		t.Errorf("wide row lost its extra cell:\n%s", out)
	}
}

func TestPlot(t *testing.T) {
	s := Series{Name: "line"}
	for i := 0; i <= 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	out := Plot([]Series{s}, 40, 10)
	if !strings.Contains(out, "*") || !strings.Contains(out, "line") {
		t.Errorf("plot missing glyph or legend:\n%s", out)
	}
	if Plot(nil, 40, 10) != "(no data)\n" {
		t.Error("empty plot should say so")
	}
	// Constant series must not divide by zero.
	c := Series{Name: "const"}
	c.Add(1, 5)
	c.Add(2, 5)
	if out := Plot([]Series{c}, 20, 6); !strings.Contains(out, "*") {
		t.Errorf("constant plot broken:\n%s", out)
	}
	// Tiny sizes are clamped.
	if out := Plot([]Series{s}, 1, 1); out == "" {
		t.Error("clamped plot empty")
	}
}

func TestMeanAbsError(t *testing.T) {
	got := map[string]float64{"a": 0.5, "b": 0.9}
	want := map[string]float64{"a": 0.6, "b": 0.8}
	if e := MeanAbsError(got, want); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("MeanAbsError = %v, want 0.1", e)
	}
	if e := MeanAbsError(nil, nil); e != 0 {
		t.Errorf("empty error = %v", e)
	}
	// The terms are summed in key order, not map order: every call returns
	// the same bits.
	want = map[string]float64{}
	for i := 0; i < 9; i++ {
		want[string(rune('a'+i))] = math.Pow(10, -float64(i))
	}
	first := MeanAbsError(nil, want)
	for i := 0; i < 2000; i++ {
		if e := MeanAbsError(nil, want); e != first {
			t.Fatalf("call %d returned %b, the first %b", i, e, first)
		}
	}
}
