package serve_test

// Tests for the serving plane's feedback classification: answer provenance,
// verdict → polarity mapping, queue/drain semantics, and the end-to-end
// serve → feedback → ingest → incremental re-detect → republish loop.

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/xmldb"
)

func TestAnswerProvenance(t *testing.T) {
	n, _ := lineNet(t)
	srv := serve.New(n, serve.Options{})
	ans, err := srv.Answer("p1", projA(t, n, "p1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Attrs) != 1 || ans.Attrs[0] != "a" {
		t.Errorf("Attrs = %v, want [a]", ans.Attrs)
	}
	want := map[graph.PeerID]string{"p1": "", "p2": "m12", "p3": "m12|m23"}
	if len(ans.Paths) != len(want) {
		t.Fatalf("%d paths, want %d: %+v", len(ans.Paths), len(want), ans.Paths)
	}
	for _, p := range ans.Paths {
		chain := ""
		for i, e := range p.Via {
			if i > 0 {
				chain += "|"
			}
			chain += string(e)
		}
		if w, ok := want[p.Peer]; !ok || chain != w {
			t.Errorf("path to %s via %q, want %q", p.Peer, chain, want[p.Peer])
		}
		if p.Records != 1 {
			t.Errorf("path to %s contributed %d records, want 1", p.Peer, p.Records)
		}
	}
}

func TestFeedbackClassification(t *testing.T) {
	n, _ := lineNet(t)
	srv := serve.New(n, serve.Options{})
	q := projA(t, n, "p1")
	ans, err := srv.Answer("p1", q)
	if err != nil {
		t.Fatal(err)
	}

	// Confirm: one positive observation per contributing chain (p2 and p3;
	// the origin's own records cross no mapping).
	if got := srv.FeedbackAnswer(ans, xmldb.VerdictConfirm); got != 2 {
		t.Errorf("confirm produced %d observations, want 2", got)
	}
	// Contradict: one negative observation over the union of contributing
	// chains.
	if got := srv.FeedbackAnswer(ans, xmldb.VerdictContradict); got != 1 {
		t.Errorf("contradict produced %d observations, want 1", got)
	}
	// Per-path verdict over p3's chain.
	if got := srv.FeedbackPath(ans, "p3", xmldb.VerdictContradict); got != 1 {
		t.Errorf("path contradict produced %d observations, want 1", got)
	}
	// Unknown peer and origin-local paths attribute nothing.
	if got := srv.FeedbackPath(ans, "ghost", xmldb.VerdictConfirm); got != 0 {
		t.Errorf("unknown peer produced %d observations", got)
	}
	if got := srv.FeedbackPath(ans, "p1", xmldb.VerdictConfirm); got != 0 {
		t.Errorf("origin-local path produced %d observations", got)
	}
	// Lost: neutral observations on every traversed chain.
	if got := srv.FeedbackAnswer(ans, xmldb.VerdictLost); got != 2 {
		t.Errorf("lost produced %d observations, want 2", got)
	}

	obs := srv.DrainFeedback()
	if len(obs) != 6 {
		t.Fatalf("drained %d observations, want 6", len(obs))
	}
	byPol := map[feedback.Polarity]int{}
	for _, o := range obs {
		byPol[o.Polarity]++
		if o.Attr != "a" {
			t.Errorf("observation attr %q, want a", o.Attr)
		}
	}
	if byPol[feedback.Positive] != 2 || byPol[feedback.Negative] != 2 || byPol[feedback.Neutral] != 2 {
		t.Errorf("polarity split %v, want 2/2/2", byPol)
	}
	// The contradiction over the answer ranges over the union m12∪m23.
	foundUnion := false
	for _, o := range obs {
		if o.Polarity == feedback.Negative && len(o.Chain) == 2 {
			foundUnion = true
		}
	}
	if !foundUnion {
		t.Error("no negative observation over the 2-mapping union")
	}

	if len(srv.DrainFeedback()) != 0 {
		t.Error("drain did not empty the queue")
	}
	st := srv.FeedbackStats()
	if st.Confirmed != 3 || st.Contradicted != 2 || st.Lost != 1 {
		t.Errorf("verdict counters %+v, want 3 confirmed, 2 contradicted, 1 lost", st)
	}
	if st.Queued != 6 || st.Unattributed != 2 || st.Pending != 0 {
		t.Errorf("queue counters %+v, want 6 queued, 2 unattributed, 0 pending", st)
	}
}

// TestFeedbackQueryEntryPoint: the Feedback(origin, q, verdict) form answers
// from the current snapshot (a cache hit) and classifies against it.
func TestFeedbackQueryEntryPoint(t *testing.T) {
	n, _ := lineNet(t)
	srv := serve.New(n, serve.Options{})
	q := projA(t, n, "p1")
	if _, err := srv.Answer("p1", q); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Feedback("p1", q, xmldb.VerdictConfirm)
	if err != nil || got != 2 {
		t.Fatalf("Feedback = %d, %v; want 2 observations", got, err)
	}
	if st := srv.Stats(); st.CacheHits != 1 {
		t.Errorf("feedback recomputed the answer (%d hits), want a cache hit", st.CacheHits)
	}
}

// TestServeFeedbackLoopEndToEnd closes the whole cycle against a live
// network: serve, contradict the corrupted path, drain, ingest, re-detect
// incrementally, republish — and the republished snapshot routes around the
// incriminated mapping.
func TestServeFeedbackLoopEndToEnd(t *testing.T) {
	n, snap := lineNet(t)
	srv := serve.New(n, serve.Options{})
	q := projA(t, n, "p1")
	ans, err := srv.Answer("p1", q)
	if err != nil {
		t.Fatal(err)
	}
	// The user keeps rejecting what arrives over m23 and blessing m12.
	for i := 0; i < 8; i++ {
		srv.FeedbackPath(ans, "p3", xmldb.VerdictContradict)
		srv.FeedbackPath(ans, "p2", xmldb.VerdictConfirm)
	}
	rep, err := n.IngestFeedback(core.FeedbackOptions{Delta: 0.1, Noise: 0.05}, srv.DrainFeedback()...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NewFactors != 2 || rep.Observations != 16 {
		t.Fatalf("ingest report %+v, want 2 factors from 16 observations", rep)
	}
	det, err := n.RunDetection(core.DetectOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	n.PublishSnapshot(det, core.SnapshotOptions{})
	// m23 took the blame: it is the only mapping in the contradicted chain
	// that is not also in a confirmed one.
	if p23, p12 := det.Posterior("m23", "a", -1), det.Posterior("m12", "a", -1); !(p23 < 0.5 && p12 > 0.5) {
		t.Fatalf("posteriors m23=%v m12=%v, want m23 < 0.5 < m12", p23, p12)
	}
	cur := n.Snapshot()
	if cur.Epoch() != snap.Epoch()+1 {
		t.Fatalf("republished epoch %d, want %d", cur.Epoch(), snap.Epoch()+1)
	}
	// Serving now stops at p2: the θ gate blocks the incriminated mapping.
	ans2, err := srv.Answer("p1", q)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Epoch != cur.Epoch() || ans2.Peers != 2 || ans2.Blocked == 0 {
		t.Fatalf("post-feedback answer %+v: want 2 peers at epoch %d with a blocked hop",
			ans2, cur.Epoch())
	}
}

// TestFeedbackConcurrentEnqueue: verdicts from many goroutines all land in
// one drain, with consistent counters (run under -race in CI).
func TestFeedbackConcurrentEnqueue(t *testing.T) {
	n, _ := lineNet(t)
	srv := serve.New(n, serve.Options{})
	ans, err := srv.Answer("p1", projA(t, n, "p1"))
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				srv.FeedbackAnswer(ans, xmldb.VerdictConfirm)
			}
		}()
	}
	wg.Wait()
	obs := srv.DrainFeedback()
	if len(obs) != workers*each*2 {
		t.Errorf("drained %d observations, want %d", len(obs), workers*each*2)
	}
	if st := srv.FeedbackStats(); st.Confirmed != workers*each || st.Queued != uint64(workers*each*2) {
		t.Errorf("stats %+v", st)
	}
}

// TestJudgeVerdicts pins the record-level oracle.
func TestJudgeVerdicts(t *testing.T) {
	r := func(v string) xmldb.Record { return xmldb.Record{"a": []string{v}} }
	cases := []struct {
		name      string
		got, want []xmldb.Record
		verdict   xmldb.Verdict
	}{
		{"equal", []xmldb.Record{r("x"), r("y")}, []xmldb.Record{r("y"), r("x")}, xmldb.VerdictConfirm},
		{"both empty", nil, nil, xmldb.VerdictConfirm},
		{"spurious", []xmldb.Record{r("x"), r("z")}, []xmldb.Record{r("x")}, xmldb.VerdictContradict},
		{"missing", []xmldb.Record{r("x")}, []xmldb.Record{r("x"), r("y")}, xmldb.VerdictLost},
		{"all missing", nil, []xmldb.Record{r("x")}, xmldb.VerdictLost},
		{"spurious beats missing", []xmldb.Record{r("z")}, []xmldb.Record{r("x")}, xmldb.VerdictContradict},
	}
	for _, c := range cases {
		if got := xmldb.Judge(c.got, c.want); got != c.verdict {
			t.Errorf("%s: Judge = %v, want %v", c.name, got, c.verdict)
		}
	}
	for v, s := range map[xmldb.Verdict]string{
		xmldb.VerdictConfirm: "confirm", xmldb.VerdictContradict: "contradict",
		xmldb.VerdictLost: "lost", xmldb.Verdict(9): "Verdict(9)",
	} {
		if v.String() != s {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), v.String(), s)
		}
	}
}
