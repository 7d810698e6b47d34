package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/serve"
)

// This file pins what the one epoch driver promises under serving: every
// scenario feature a load spec declares — adversaries, flashcrowds, Verify —
// acts on the run, and the invariant suite holds the served run to the same
// contract as the replay.

// runServed builds the scenario and serves the workload, failing the test on
// any error.
func runServed(t *testing.T, sc Scenario, w Workload) (*Simulation, *Result) {
	t.Helper()
	s, err := New(sc)
	if err != nil {
		t.Fatalf("%s: build: %v", sc.Name, err)
	}
	res, _, err := s.RunWorkload(w, nil)
	if err != nil {
		t.Fatalf("%s: run: %v", sc.Name, err)
	}
	return s, res
}

// workloadViolations joins every epoch's violations.
func workloadViolations(res *Result) string {
	var all []string
	for _, ep := range res.Epochs {
		all = append(all, ep.Violations...)
	}
	return strings.Join(all, "; ")
}

// TestServingWithoutFeedbackKeepsReplay: clients that send no feedback only
// read, so a load run and the zero-client replay of its scenario must record
// the same replay in every epoch — discovery, detection, coverage and means,
// routing, crash, violations, the publication — and end on the same
// inference state. One epoch record is what makes the two runs comparable
// field for field.
func TestServingWithoutFeedbackKeepsReplay(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "pdmssim", "testdata", "small.load.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseLoadSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Workload.Feedback {
		t.Fatal("fixture: small.load.json must serve without feedback")
	}
	_, served := runServed(t, spec.Scenario, spec.Workload)
	s, err := New(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(served.Epochs) != len(replay.Epochs) {
		t.Fatalf("served %d epochs, replayed %d", len(served.Epochs), len(replay.Epochs))
	}
	for i, got := range served.Epochs {
		if got.Served == 0 {
			t.Fatalf("epoch %d: the clients served nothing", got.Epoch)
		}
		// Drop what only the clients produced; the rest is the replay's.
		got.Queries, got.Served, got.Errors, got.CacheHits, got.Revalidated, got.Computed = 0, 0, 0, 0, 0, 0
		got.StaleReads, got.Visits, got.Records, got.Digest = 0, 0, 0, ""
		if !reflect.DeepEqual(got, replay.Epochs[i]) {
			t.Errorf("epoch %d: serving moved the replay:\n served %+v\n replay %+v", got.Epoch, got, replay.Epochs[i])
		}
	}
	if served.InferenceDigest != replay.InferenceDigest {
		t.Errorf("inference digest: served %s, replay %s", served.InferenceDigest, replay.InferenceDigest)
	}
}

// TestTrustNoopOnHonestNetworksServed is the served twin of
// TestTrustNoopOnHonestNetworks: the same 50 generated seeds, served by two
// clients with feedback on, with trust weighting and with NoTrust, must give
// byte-identical traces and no violation. Serving routes a whole epoch of
// queries on one snapshot, so an honest owner's verdicts on its own mapping
// arrive at a volume the replay's bursts never reach.
func TestTrustNoopOnHonestNetworksServed(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := GenConfig{
			Seed:            int64(4000 + seed),
			Peers:           12,
			Epochs:          3,
			Events:          2,
			FeedbackQueries: 12,
			Verify:          true,
		}
		if seed%3 == 0 {
			cfg.FeedbackNoise = 0.1
		}
		sc, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		w := Workload{Clients: 2, QueriesPerEpoch: 300, Feedback: true}
		_, trusted := runServed(t, sc, w)
		sc.NoTrust = true
		_, plain := runServed(t, sc, w)
		tb, _ := json.Marshal(trusted)
		pb, _ := json.Marshal(plain)
		if string(tb) != string(pb) {
			t.Errorf("seed %d: trust weighting perturbed an honest served network", seed)
		}
		if trusted.Violations != 0 {
			t.Errorf("seed %d: %d violations: %s", seed, trusted.Violations, workloadViolations(trusted))
		}
	}
}

// TestAttacksUnderServing serves each of the five adv-* golden scenarios to
// two clients with feedback, in barrier and pipelined mode: the attacks,
// partitions and surges act on the served run, and its invariant suite —
// trust's contract included — stays clean.
func TestAttacksUnderServing(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "pdmssim", "testdata", "adv-*.scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5 {
		t.Fatalf("found %d adv-* scenarios, want 5", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ParseScenario(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, pipeline := range []bool{false, true} {
			_, res := runServed(t, sc, Workload{Clients: 2, QueriesPerEpoch: 120, Feedback: true, Pipeline: pipeline})
			if res.Violations != 0 {
				t.Errorf("%s (pipeline %v): %d violations: %s", sc.Name, pipeline, res.Violations, workloadViolations(res))
			}
			for _, ep := range res.Epochs {
				if ep.Served != ep.Queries || ep.Feedback == nil {
					t.Errorf("%s (pipeline %v) epoch %d: served %d/%d, feedback %v",
						sc.Name, pipeline, ep.Epoch, ep.Served, ep.Queries, ep.Feedback)
				}
			}
		}
	}
}

// TestLoadSpecAdversariesAct: a poison or sybil clique declared in a load
// spec changes the served trace — it used to be dropped silently.
func TestLoadSpecAdversariesAct(t *testing.T) {
	for _, strategy := range []string{AdvPoison, AdvSybil} {
		sc, err := Generate(GenConfig{Seed: 7, Peers: 40, Epochs: 4, AdvFraction: 0.15, AdvStrategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.Adversaries) == 0 {
			t.Fatalf("%s: generator produced no clique", strategy)
		}
		for i := range sc.Epochs {
			sc.Epochs[i].Queries = 0
		}
		w := Workload{Seed: 7, Clients: 2, QueriesPerEpoch: 300, Feedback: true}
		_, attacked := runServed(t, sc, w)
		stripped := sc
		stripped.Adversaries = nil
		_, honest := runServed(t, stripped, w)
		if attacked.Digest == honest.Digest && reflect.DeepEqual(attacked.Epochs, honest.Epochs) {
			t.Errorf("%s: the clique left the served trace untouched", strategy)
		}
		injected := 0
		for _, ep := range attacked.Epochs {
			injected += ep.Feedback.Injected
		}
		if injected == 0 {
			t.Errorf("%s: no fabricated observation rode a feedback batch", strategy)
		}
		// The generated sybil clique outnumbers the honest owner of the
		// corrupted mapping it vouches for and gets it discounted: that attack
		// lands, and the served trace now reports it as a violation.
		if strategy == AdvPoison && attacked.Violations != 0 {
			t.Errorf("%s: %d violations: %s", strategy, attacked.Violations, workloadViolations(attacked))
		}
	}
}

// TestLoadSpecFlashcrowdGrowsBatch: a flashcrowd epoch routes its surge and
// ingests it in that epoch's feedback batch.
func TestLoadSpecFlashcrowdGrowsBatch(t *testing.T) {
	sc, err := Generate(GenConfig{Seed: 3, Peers: 12, Epochs: 3, Events: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0
	}
	w := Workload{Clients: 2, QueriesPerEpoch: 60, Feedback: true}
	_, calm := runServed(t, sc, w)
	sc.Epochs[1].Events = []Event{{Op: OpFlashcrowd, Count: 40}}
	_, surge := runServed(t, sc, w)
	if got := surge.Epochs[1].Feedback.Queries; got != 40 {
		t.Errorf("flashcrowd epoch routed %d feedback queries, want 40", got)
	}
	if surge.Epochs[1].Feedback.Observations <= calm.Epochs[1].Feedback.Observations {
		t.Errorf("flashcrowd epoch ingested %d observations, the calm run %d: the surge did not reach the batch",
			surge.Epochs[1].Feedback.Observations, calm.Epochs[1].Feedback.Observations)
	}
	if q := surge.Epochs[0].Feedback.Queries + surge.Epochs[2].Feedback.Queries; q != 0 {
		t.Errorf("the surge leaked into other epochs: %d routed feedback queries", q)
	}
}

// TestLoadSpecVerifyRunsScratchDifferential: under Verify a served run is
// held to the scratch differential — a mapping corrupted behind the
// simulation's back must show up as a violation.
func TestLoadSpecVerifyRunsScratchDifferential(t *testing.T) {
	sc, err := Generate(GenConfig{Seed: 5, Peers: 12, Epochs: 2, Events: -1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Epochs {
		sc.Epochs[i].Queries = 0
	}
	w := Workload{Clients: 2, QueriesPerEpoch: 60, Feedback: true}
	if _, res := runServed(t, sc, w); res.Violations != 0 {
		t.Fatalf("healthy served run: %d violations: %s", res.Violations, workloadViolations(res))
	}
	s, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	victim := graph.EdgeID(s.liveMappings()[0])
	spec := s.specs[victim]
	s.net.RemoveMapping(victim)
	if _, err := s.net.AddMapping(victim, spec.from, spec.to, s.swapPairs); err != nil {
		t.Fatal(err)
	}
	res, _, err := s.RunWorkload(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(workloadViolations(res), "from scratch") {
		t.Errorf("desynchronized served run passed the differential: %q", workloadViolations(res))
	}
}

// TestFeedbackProducersAgree: the scenario's routed burst and a serving
// client judge the same path into the same observation. On one snapshot, for
// every origin the burst drew and every path of that origin's
// analysis-attribute projection that returns records, the burst's
// QueryFeedback equals what Server.FeedbackPath enqueues for the same verdict.
func TestFeedbackProducersAgree(t *testing.T) {
	s, err := New(Scenario{Peers: 12, Seed: 9, Corrupt: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.net.Discover(s.discoverCfg()); err != nil {
		t.Fatal(err)
	}
	det, err := s.net.RunDetection(core.DetectOptions{MaxRounds: 300, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Seed: 9}.withDefaults(s.sc)
	s.ensureStores(w)
	snap := s.net.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: s.sc.Theta})
	routed, viol, err := s.collectFeedbackObs(snap, det, 12, 1, 0)
	if err != nil || len(viol) != 0 {
		t.Fatalf("routed burst: violations %v, err %v", viol, err)
	}
	byPath := map[string]core.QueryFeedback{}
	origins := map[graph.PeerID]bool{}
	for _, o := range routed {
		byPath[string(o.Reporter)+"|"+graphKey(o.Chain)] = o
		origins[o.Reporter] = true
	}
	srv := serve.New(s.net, serve.Options{})
	attr := analysisAttr
	compared := 0
	for origin := range origins {
		sch, _ := snap.Schema(origin)
		ans, err := srv.Answer(origin, query.MustNew(sch, query.Op{Kind: query.Project, Attr: attr}))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ans.Paths {
			if p.Records == 0 || len(p.Via) == 0 {
				continue
			}
			v := s.pathVerdict(ans.Attrs, p.Via)
			srv.FeedbackPath(ans, p.Peer, v)
			got := srv.DrainFeedback()
			want, ok := byPath[string(origin)+"|"+graphKey(p.Via)]
			if !ok {
				t.Errorf("%s via %v: served path the routed burst never judged", origin, p.Via)
				continue
			}
			if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
				t.Errorf("%s via %v: server enqueued %+v, the routed burst %+v", origin, p.Via, got, want)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no record-returning path to compare")
	}
}

// graphKey renders a chain as a map key.
func graphKey(chain []graph.EdgeID) string {
	parts := make([]string, len(chain))
	for i, e := range chain {
		parts[i] = string(e)
	}
	return strings.Join(parts, ">")
}

// TestWorkloadInheritsScenarioNoise: a run has one verdict noise. An unset
// workload noise inherits the scenario's; two different non-zero values are
// rejected.
func TestWorkloadInheritsScenarioNoise(t *testing.T) {
	sc := Scenario{Peers: 6, Seed: 2, FeedbackNoise: 0.2}
	if got := (Workload{}).withDefaults(sc).FeedbackNoise; got != 0.2 {
		t.Errorf("unset workload noise = %v, want the scenario's 0.2", got)
	}
	for _, tc := range []struct {
		noise float64
		ok    bool
	}{{0, true}, {0.2, true}, {0.1, false}} {
		w := Workload{FeedbackNoise: tc.noise}.withDefaults(sc)
		if err := w.check(sc); (err == nil) != tc.ok {
			t.Errorf("workload noise %v against scenario 0.2: err %v, want ok=%v", tc.noise, err, tc.ok)
		}
	}
}
