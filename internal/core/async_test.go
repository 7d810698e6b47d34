package core_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/paper"
	"repro/internal/schema"
)

// TestAsyncMatchesPeriodicOnTree: on a tree factor graph the asynchronous
// schedule must land on the unique BP fixed point.
func TestAsyncMatchesPeriodicOnTree(t *testing.T) {
	build := func() *core.Network {
		n, err := paper.RingNetwork(5, 11)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.DiscoverStructural([]schema.Attribute{"a0"}, 5, 0.1); err != nil {
			t.Fatal(err)
		}
		return n
	}
	want, err := build().RunDetection(core.DetectOptions{MaxRounds: 100, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := build().RunDetectionAsync(core.DetectOptions{MaxRounds: 60, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("async run did not settle")
	}
	for i := 0; i < 5; i++ {
		m := graph.EdgeID("m" + string(rune('0'+i)))
		a := want.Posterior(m, "a0", -1)
		b := res.Posterior(m, "a0", -2)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("posterior[%s]: async %.12f vs periodic %.12f", m, b, a)
		}
	}
	if res.RemoteMessages <= 0 {
		t.Errorf("remote messages = %d", res.RemoteMessages)
	}
}

// TestAsyncDetectsFaultyMapping: on the loopy intro network the async
// schedule reaches a nearby fixed point with the same decisions.
func TestAsyncDetectsFaultyMapping(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	res, err := n.RunDetectionAsync(core.DetectOptions{MaxRounds: 120})
	if err != nil {
		t.Fatal(err)
	}
	m24 := res.Posterior("m24", paper.Creator, -1)
	m23 := res.Posterior("m23", paper.Creator, -1)
	if m24 >= 0.5 || m23 <= 0.5 {
		t.Errorf("decisions wrong: m24=%.3f m23=%.3f", m24, m23)
	}
	if math.Abs(m24-0.30) > 0.05 {
		t.Errorf("m24 = %.3f, want ≈0.30", m24)
	}
	if math.Abs(m23-0.57) > 0.05 {
		t.Errorf("m23 = %.3f, want ≈0.56–0.59", m23)
	}
}

// TestAsyncIsDeterministic: the asynchronous schedule owes nothing to the
// goroutine scheduler — repeated runs on the loopy intro network, serial or
// on a worker pool, give bit-identical posteriors, message counts, rounds
// and work counters.
func TestAsyncIsDeterministic(t *testing.T) {
	run := func(workers int) core.DetectResult {
		n := paper.IntroNetwork()
		if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator, paper.CreatedOn}, 6, paper.Delta); err != nil {
			t.Fatal(err)
		}
		res, err := n.RunDetectionAsync(core.DetectOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(0)
	if want.RemoteMessages == 0 || want.Work.MessageUpdates == 0 {
		t.Fatalf("async run did no work: %+v", want)
	}
	for i := 0; i < 10; i++ {
		got := run(i % 3)
		if !reflect.DeepEqual(got.Posteriors, want.Posteriors) {
			t.Errorf("run %d: posteriors differ:\n got %v\nwant %v", i, got.Posteriors, want.Posteriors)
		}
		if got.RemoteMessages != want.RemoteMessages || got.Rounds != want.Rounds || got.Work != want.Work {
			t.Errorf("run %d: %d messages, %d rounds, work %+v; first run %d, %d, %+v",
				i, got.RemoteMessages, got.Rounds, got.Work, want.RemoteMessages, want.Rounds, want.Work)
		}
	}
}

func TestAsyncValidation(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.RunDetectionAsync(core.DetectOptions{DefaultPrior: 2}); err == nil {
		t.Error("bad prior: want error")
	}
	if _, err := n.RunDetectionAsync(core.DetectOptions{MaxRounds: -1}); err == nil {
		t.Error("negative rounds: want error")
	}
}

func TestAttrPosterior(t *testing.T) {
	post := map[graph.EdgeID]map[schema.Attribute]float64{"m": {"a": 0.7}}
	if got := core.AttrPosterior(post, "m", "a", 0.5); got != 0.7 {
		t.Errorf("got %v", got)
	}
	if got := core.AttrPosterior(post, "m", "zz", 0.5); got != 0.5 {
		t.Errorf("default attr: got %v", got)
	}
	if got := core.AttrPosterior(post, "zz", "a", 0.5); got != 0.5 {
		t.Errorf("default mapping: got %v", got)
	}
}
