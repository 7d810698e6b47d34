package pdms_test

import (
	"testing"

	pdms "repro"
)

// TestPublicServingSurface drives the query-serving plane through the
// public API alone: build a network with stores, discover evidence, run
// detection with snapshot publication enabled, and serve a query
// concurrently-safely through NewServer.
func TestPublicServingSurface(t *testing.T) {
	s := pdms.MustNewSchema("S", "Creator", "Title")
	net := pdms.NewNetwork(true)
	for _, p := range []pdms.PeerID{"p1", "p2", "p3"} {
		peer := net.MustAddPeer(p, s)
		st, err := pdms.NewStore(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(pdms.Record{"Creator": []string{"Robi " + string(p)}}); err != nil {
			t.Fatal(err)
		}
		if err := peer.AttachStore(st); err != nil {
			t.Fatal(err)
		}
	}
	pairs := pdms.IdentityPairs(s)
	net.MustAddMapping("m12", "p1", "p2", pairs)
	net.MustAddMapping("m23", "p2", "p3", pairs)
	net.MustAddMapping("m31", "p3", "p1", pairs)
	if _, err := net.DiscoverStructural([]pdms.Attribute{"Creator"}, 6, 0.1); err != nil {
		t.Fatal(err)
	}
	det, err := net.RunDetection(pdms.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := net.PublishSnapshot(det, pdms.SnapshotOptions{})
	if net.Snapshot() != snap {
		t.Fatal("the published snapshot is not the network's current one")
	}

	srv := pdms.NewServer(net, pdms.ServeOptions{})
	q := pdms.MustNewQuery(s, pdms.Op{Kind: pdms.Select, Attr: "Creator", Literal: "Robi"})
	ans, err := srv.Answer("p1", q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Epoch != snap.Epoch() {
		t.Errorf("answer epoch %d, want %d", ans.Epoch, snap.Epoch())
	}
	if ans.Peers != 3 || len(ans.Records) != 3 {
		t.Errorf("answer reached %d peers with %d records, want 3 and 3", ans.Peers, len(ans.Records))
	}
	if _, err := srv.Answer("p1", q); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Served != 2 || st.CacheHits != 1 {
		t.Errorf("stats %+v, want 2 served / 1 hit", st)
	}
}

// TestPublicFeedbackSurface closes the loop through the public API alone:
// serve, judge the answer, drain the classified observations into
// IngestFeedback, re-detect incrementally with republication, and observe
// the posteriors move.
func TestPublicFeedbackSurface(t *testing.T) {
	s := pdms.MustNewSchema("S", "Creator", "Title")
	net := pdms.NewNetwork(true)
	for _, p := range []pdms.PeerID{"p1", "p2", "p3"} {
		peer := net.MustAddPeer(p, s)
		st, err := pdms.NewStore(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(pdms.Record{"Creator": []string{"Robi " + string(p)}}); err != nil {
			t.Fatal(err)
		}
		if err := peer.AttachStore(st); err != nil {
			t.Fatal(err)
		}
	}
	pairs := pdms.IdentityPairs(s)
	net.MustAddMapping("m12", "p1", "p2", pairs)
	net.MustAddMapping("m23", "p2", "p3", pairs)
	// A line topology carries no structural evidence (no cycles, no
	// parallel paths): query feedback is the only evidence source, and
	// uncovered mappings route on an optimistic default posterior.
	pub := pdms.SnapshotOptions{DefaultPosterior: 0.9}
	det, err := net.RunDetection(pdms.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	net.PublishSnapshot(det, pub)
	srv := pdms.NewServer(net, pdms.ServeOptions{})
	q := pdms.MustNewQuery(s, pdms.Op{Kind: pdms.Select, Attr: "Creator", Literal: "Robi"})
	ans, err := srv.Answer("p1", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Paths) != 3 || len(ans.Attrs) != 1 {
		t.Fatalf("answer provenance %+v", ans)
	}
	// The user vouches for everything that arrived; the record-level oracle
	// agrees with itself.
	if v := pdms.Judge(ans.Records, ans.Records); v != pdms.VerdictConfirm {
		t.Fatalf("Judge(x, x) = %v, want confirm", v)
	}
	if n, err := srv.Feedback("p1", q, pdms.VerdictConfirm); err != nil || n != 2 {
		t.Fatalf("Feedback = %d, %v; want 2 observations", n, err)
	}
	rep, err := net.IngestFeedback(pdms.FeedbackOptions{Delta: 0.1}, srv.DrainFeedback()...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewFactors != 2 {
		t.Fatalf("ingest report %+v, want 2 new factors", rep)
	}
	det, err = net.RunDetection(pdms.DetectOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	net.PublishSnapshot(det, pub)
	if p := det.Posterior("m23", "Creator", -1); p <= 0.5 {
		t.Errorf("confirmed mapping posts %v, want > 0.5", p)
	}
	if net.Snapshot().Epoch() != 2 {
		t.Errorf("republished epoch %d, want 2", net.Snapshot().Epoch())
	}
	if st := srv.FeedbackStats(); st.Confirmed != 1 || st.Queued != 2 {
		t.Errorf("feedback stats %+v", st)
	}
}

// TestPublicWorkloadSurface runs a small load spec through the public
// re-exports, as cmd/pdmsload does.
func TestPublicWorkloadSurface(t *testing.T) {
	sc, err := pdms.GenerateScenario(pdms.GenConfig{Seed: 3, Peers: 8, Epochs: 1, Events: -1})
	if err != nil {
		t.Fatal(err)
	}
	spec := pdms.LoadSpec{Scenario: sc, Workload: pdms.Workload{Clients: 2, QueriesPerEpoch: 40}}
	sim, err := pdms.NewSimulation(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	res, perf, err := sim.RunWorkload(spec.Workload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed != 40 || perf.Served != 40 {
		t.Errorf("served %d (perf %d), want 40", res.TotalServed, perf.Served)
	}
	if _, err := pdms.ParseLoadSpec([]byte(`{"workload": {"zzz": true}}`)); err == nil {
		t.Error("unknown load-spec field: want error")
	}
}
