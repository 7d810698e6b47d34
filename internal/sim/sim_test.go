package sim

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestGenerateDeterminism: the same GenConfig yields byte-identical
// scenarios, and different seeds yield different timelines.
func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(GenConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("same seed produced different scenarios")
	}
	c, err := Generate(GenConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(ja) == string(jc) {
		t.Error("different seeds produced identical scenarios")
	}
	events := 0
	for _, ep := range a.Epochs {
		events += len(ep.Events)
	}
	if events == 0 {
		t.Error("generated scenario has no churn events")
	}
}

// TestRunDeterminism: replaying the same scenario twice — including a lossy
// epoch — produces byte-identical traces.
func TestRunDeterminism(t *testing.T) {
	sc, err := Generate(GenConfig{Seed: 7, Peers: 10, Epochs: 3, PSend: 0.8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	sc.RecordPosteriors = true
	run := func() string {
		s, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic trace:\n%s\nvs\n%s", a, b)
	}
}

// TestScenarioRoundTrip: a scenario survives JSON round-tripping, and
// unknown fields are rejected.
func TestScenarioRoundTrip(t *testing.T) {
	sc, err := Generate(GenConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(sc)
	j2, _ := json.Marshal(back)
	if string(j1) != string(j2) {
		t.Error("scenario did not round-trip")
	}
	if _, err := ParseScenario([]byte(`{"peers": 5, "bogusField": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestScenarioValidation: invalid scenarios are rejected with errors.
func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"too few peers", Scenario{Peers: 2, Attach: 3}},
		{"one attribute", Scenario{Peers: 6, Attrs: 1}},
		{"bad corrupt", Scenario{Peers: 6, Corrupt: 1.5}},
		{"bad theta", Scenario{Peers: 6, Theta: 1}},
		{"bad psend", Scenario{Peers: 6, Epochs: []Epoch{{PSend: 2}}}},
		{"negative queries", Scenario{Peers: 6, Epochs: []Epoch{{Queries: -1}}}},
	}
	for _, c := range cases {
		if _, err := New(c.sc); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestQueriesOnEmptiedNetworkFail: a scenario file whose churn empties the
// network and then asks for queries passes validation, so the replay and the
// workload engine must fail the epoch with an error — not panic drawing an
// origin from nobody.
func TestQueriesOnEmptiedNetworkFail(t *testing.T) {
	const leaveAll = `"events":[{"op":"leave","peer":"p0"},{"op":"leave","peer":"p1"},{"op":"leave","peer":"p2"}]`
	cases := []struct {
		name, scenario string
		run            func(s *Simulation) error
	}{
		{"replay query burst", `{"peers":3,"epochs":[{` + leaveAll + `,"queries":2}]}`,
			func(s *Simulation) error { _, err := s.Run(); return err }},
		{"replay feedback burst", `{"peers":3,"epochs":[{` + leaveAll + `,"feedbackQueries":2}]}`,
			func(s *Simulation) error { _, err := s.Run(); return err }},
		{"workload serve phase", `{"peers":3,"epochs":[{` + leaveAll + `}]}`,
			func(s *Simulation) error {
				_, _, err := s.RunWorkload(Workload{Clients: 2, QueriesPerEpoch: 4}, nil)
				return err
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ParseScenario([]byte(tc.scenario))
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(sc)
			if err != nil {
				t.Fatal(err)
			}
			const want = "sim: epoch 1: no live peers to route from"
			if err := tc.run(s); err == nil || err.Error() != want {
				t.Fatalf("got error %v, want %q", err, want)
			}
		})
	}
}

// TestApplyEventErrors: events referencing missing entities fail loudly.
func TestApplyEventErrors(t *testing.T) {
	s, err := New(Scenario{Peers: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		{Op: OpJoin},
		{Op: OpLeave, Peer: "ghost"},
		{Op: OpRemoveMapping, Mapping: "ghost"},
		{Op: OpCorrupt, Mapping: "ghost"},
		{Op: OpAddMapping, Mapping: "mX", From: "ghost", To: "p0"},
		{Op: "teleport"},
	}
	for _, ev := range bad {
		if err := s.applyEvent(ev); err == nil {
			t.Errorf("event %+v accepted", ev)
		}
	}
}

// TestEpochTraceShape: a small verified scenario produces coherent traces —
// counts line up, churn shows up in the peer/mapping counts, no invariant
// violations.
func TestEpochTraceShape(t *testing.T) {
	sc := Scenario{
		Name: "shape", Seed: 5, Peers: 8, Corrupt: 0.2, Verify: true,
		RecordPosteriors: true,
		Epochs: []Epoch{
			{Queries: 4},
			{Events: []Event{
				{Op: OpJoin, Peer: "p8"},
				{Op: OpAddMapping, Mapping: "mJ1", From: "p8", To: "p0"},
				{Op: OpAddMapping, Mapping: "mJ2", From: "p8", To: "p1"},
			}, Queries: 4},
			{Events: []Event{{Op: OpLeave, Peer: "p8"}}, Queries: 4},
		},
	}
	s, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(res.Epochs))
	}
	if res.Violations != 0 {
		t.Fatalf("violations: %v", collectViolations(res))
	}
	e1, e2, e3 := res.Epochs[0], res.Epochs[1], res.Epochs[2]
	if e1.Peers != 8 || e2.Peers != 9 || e3.Peers != 8 {
		t.Errorf("peer counts = %d,%d,%d, want 8,9,8", e1.Peers, e2.Peers, e3.Peers)
	}
	if e2.Mappings != e1.Mappings+2 || e3.Mappings != e1.Mappings {
		t.Errorf("mapping counts = %d,%d,%d", e1.Mappings, e2.Mappings, e3.Mappings)
	}
	if e1.Discovery.Structures == 0 {
		t.Error("no structures discovered in epoch 1")
	}
	if e1.Detection.Rounds == 0 || !e1.Detection.Converged {
		t.Errorf("detection did not converge: %+v", e1.Detection)
	}
	if e1.Routing.Queries != 4 || e1.Routing.Visits < 4 {
		t.Errorf("routing trace %+v, want 4 queries each visiting >= origin", e1.Routing)
	}
	if len(e1.Posteriors) == 0 {
		t.Error("posteriors not recorded")
	}
	if res.InferenceDigest == "" {
		t.Error("empty state digest")
	}
}

func collectViolations(res *Result) string {
	var out []string
	for _, e := range res.Epochs {
		out = append(out, e.Violations...)
	}
	return strings.Join(out, "; ")
}
