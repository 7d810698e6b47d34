package wal

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/schema"
)

// testAttrs is the shared schema attribute set of the test topology.
var testAttrs = []schema.Attribute{"author", "title", "year"}

func testSchema(name string) *schema.Schema {
	return schema.MustNew(name, testAttrs...)
}

func idPairs() map[schema.Attribute]schema.Attribute {
	out := make(map[schema.Attribute]schema.Attribute)
	for _, a := range testAttrs {
		out[a] = a
	}
	return out
}

// swapPairs corrupts a mapping: author and title are crossed.
func swapPairs() map[schema.Attribute]schema.Attribute {
	out := idPairs()
	out["author"], out["title"] = "title", "author"
	return out
}

func discoverCfg() core.DiscoverConfig {
	return core.DiscoverConfig{Attrs: testAttrs, MaxLen: 4}
}

// buildJournaled opens a log on st, attaches it to a fresh directed network
// and drives the network through a representative mutation history: peers,
// a corrupted cycle, discovery, feedback, churn with incremental
// rediscovery, priors and a prior-learning commit.
func buildJournaled(t *testing.T, st Storage, opts Options) (*core.Network, *Log) {
	t.Helper()
	lg, err := Open(st, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := core.NewNetwork(true)
	if err := lg.AttachTo(n); err != nil {
		t.Fatalf("AttachTo: %v", err)
	}
	for i := 1; i <= 4; i++ {
		id := graph.PeerID(fmt.Sprintf("p%d", i))
		if _, err := n.AddPeer(id, testSchema(string(id))); err != nil {
			t.Fatalf("AddPeer: %v", err)
		}
	}
	mustMap := func(id graph.EdgeID, from, to graph.PeerID, pairs map[schema.Attribute]schema.Attribute) {
		t.Helper()
		if _, err := n.AddMapping(id, from, to, pairs); err != nil {
			t.Fatalf("AddMapping %s: %v", id, err)
		}
	}
	mustMap("m12", "p1", "p2", idPairs())
	mustMap("m23", "p2", "p3", swapPairs())
	mustMap("m31", "p3", "p1", idPairs())
	mustMap("m13", "p1", "p3", idPairs())
	if _, err := n.Discover(discoverCfg()); err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if _, err := n.IngestFeedback(core.FeedbackOptions{},
		core.QueryFeedback{Attr: "author", Chain: []graph.EdgeID{"m12", "m23"}, Polarity: feedback.Negative},
		core.QueryFeedback{Attr: "author", Chain: []graph.EdgeID{"m13"}, Polarity: feedback.Positive},
		core.QueryFeedback{Attr: "title", Chain: []graph.EdgeID{"m13"}, Polarity: feedback.Positive},
	); err != nil {
		t.Fatalf("IngestFeedback: %v", err)
	}
	// Churn: revise m23 (remove + re-add fixed), rediscover incrementally.
	n.RemoveMapping("m23")
	mustMap("m23", "p2", "p3", idPairs())
	if _, err := n.DiscoverIncremental(discoverCfg(), "m23"); err != nil {
		t.Fatalf("DiscoverIncremental: %v", err)
	}
	if p, ok := n.Peer("p1"); ok {
		p.SetPrior("m12", "author", 0.9)
	}
	det, err := n.RunDetection(core.DetectOptions{MaxRounds: 30, Seed: 7})
	if err != nil {
		t.Fatalf("RunDetection: %v", err)
	}
	n.CommitPriors(det, 0.5)
	if err := n.JournalError(); err != nil {
		t.Fatalf("JournalError: %v", err)
	}
	return n, lg
}

// comparable posterior surface of a network, detection re-run from reset
// messages with a fixed seed.
func posteriors(t *testing.T, n *core.Network) map[graph.EdgeID]map[schema.Attribute]float64 {
	t.Helper()
	n.ResetMessages()
	det, err := n.RunDetection(core.DetectOptions{MaxRounds: 30, Seed: 7})
	if err != nil {
		t.Fatalf("RunDetection: %v", err)
	}
	return det.Posteriors
}

func samePosteriors(t *testing.T, a, b map[graph.EdgeID]map[schema.Attribute]float64, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("posterior maps differ in size: %d vs %d", len(a), len(b))
	}
	for m, attrs := range a {
		for at, p := range attrs {
			q, ok := b[m][at]
			if !ok {
				t.Fatalf("posterior %s/%s missing from recovered run", m, at)
			}
			if math.Abs(p-q) > tol {
				t.Errorf("posterior %s/%s differs: %v vs %v", m, at, p, q)
			}
		}
	}
}

func sameDigest(t *testing.T, a, b *core.Network) {
	t.Helper()
	da, db := a.InferenceDigest(), b.InferenceDigest()
	if len(da) != len(db) {
		t.Fatalf("digest length %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("digest diverges at %q vs %q", da[i], db[i])
		}
	}
}

func TestRecoverReplaysFullHistory(t *testing.T) {
	st := NewMemStorage()
	n, lg := buildJournaled(t, st, Options{})
	if err := lg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	lg2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec, rep, err := lg2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.LogRecords == 0 || rep.CheckpointRecords != 0 {
		t.Errorf("report = %+v, want log-only records", rep)
	}
	if !rep.Discovered {
		t.Error("report.Discovered = false, want true")
	}
	sameDigest(t, n, rec)
	samePosteriors(t, posteriors(t, n), posteriors(t, rec), 0)

	// Journaling resumes on the recovered network.
	if err := lg2.AttachTo(rec); err != nil {
		t.Fatalf("AttachTo recovered: %v", err)
	}
	if _, err := rec.AddPeer("p9", testSchema("p9")); err != nil {
		t.Fatalf("AddPeer after recovery: %v", err)
	}
}

// TestProbeDiscoveryRecovers: probe discovery is journaled as the MutDiscover
// record of the pass it equals, so a network discovered by probes — once
// before a checkpoint and again, shorter, after it — recovers bit for bit.
func TestProbeDiscoveryRecovers(t *testing.T) {
	st := NewMemStorage()
	n, lg := buildJournaled(t, st, Options{})
	// Close a four-mapping cycle through p4 that the second, shorter pass
	// cannot see.
	for _, m := range []struct{ id, from, to string }{{"m34", "p3", "p4"}, {"m41", "p4", "p1"}} {
		if _, err := n.AddMapping(graph.EdgeID(m.id), graph.PeerID(m.from), graph.PeerID(m.to), idPairs()); err != nil {
			t.Fatal(err)
		}
	}
	long, err := n.DiscoverByProbes(testAttrs, 4, 0)
	if err != nil {
		t.Fatalf("DiscoverByProbes: %v", err)
	}
	if err := lg.Checkpoint(n); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	short, err := n.DiscoverByProbes(testAttrs, 3, 0)
	if err != nil {
		t.Fatalf("DiscoverByProbes after checkpoint: %v", err)
	}
	if short.Structures >= long.Structures {
		t.Fatalf("fixture: TTL 3 finds %d structures, TTL 4 %d; want fewer", short.Structures, long.Structures)
	}
	if err := n.JournalError(); err != nil {
		t.Fatalf("JournalError: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	lg2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec, rep, err := lg2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Checkpoint == nil || !rep.DigestOK || rep.LogRecords != 1 {
		t.Errorf("report = %+v, want a verified checkpoint and one log record", rep)
	}
	if got, want := DigestNetwork(rec), DigestNetwork(n); got != want {
		t.Errorf("recovered digest %s, live %s", got, want)
	}
	sameDigest(t, n, rec)
	samePosteriors(t, posteriors(t, n), posteriors(t, rec), 0)
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	st := NewMemStorage()
	n, lg := buildJournaled(t, st, Options{})
	if err := lg.Checkpoint(n); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := lg.SinceCheckpoint(); got != 0 {
		t.Errorf("SinceCheckpoint after checkpoint = %d, want 0", got)
	}
	// Post-checkpoint suffix: more churn and feedback.
	if _, err := n.AddPeer("p5", testSchema("p5")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddMapping("m35", "p3", "p5", idPairs()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.DiscoverIncremental(discoverCfg(), "m35"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.IngestFeedback(core.FeedbackOptions{},
		core.QueryFeedback{Attr: "year", Chain: []graph.EdgeID{"m35"}, Polarity: feedback.Positive},
	); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	lg2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec, rep, err := lg2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Checkpoint == nil || rep.CheckpointRecords == 0 {
		t.Fatalf("report = %+v, want checkpoint records", rep)
	}
	if !rep.DigestOK {
		t.Error("checkpoint digest did not verify")
	}
	if rep.Checkpoint.Peers != 4 || rep.Checkpoint.Mappings != 4 {
		t.Errorf("checkpoint header counts = %d peers %d mappings, want 4/4",
			rep.Checkpoint.Peers, rep.Checkpoint.Mappings)
	}
	sameDigest(t, n, rec)
	samePosteriors(t, posteriors(t, n), posteriors(t, rec), 0)
}

// The checkpoint must be strictly smaller than the history it compacts once
// the history contains redundancy (here: a removed+revised mapping and two
// feedback batches on one chain).
func TestCheckpointIsCompact(t *testing.T) {
	st := NewMemStorage()
	n, lg := buildJournaled(t, st, Options{})
	raw, err := st.ReadAll(logName)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(n); err != nil {
		t.Fatal(err)
	}
	ckpt, err := st.ReadAll(ckptName)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt) >= len(raw) {
		t.Errorf("checkpoint (%d bytes) is not smaller than the raw log (%d bytes)", len(ckpt), len(raw))
	}
	lw, err := st.ReadAll(logName)
	if err != nil {
		t.Fatal(err)
	}
	if len(lw) != 0 {
		t.Errorf("log not truncated after checkpoint: %d bytes", len(lw))
	}
}

func TestTornTailIsCleanEnd(t *testing.T) {
	st := NewMemStorage()
	n, lg := buildJournaled(t, st, Options{})
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final write: half a frame appended directly.
	frame := appendRecord(nil, 9999, core.Mutation{Kind: core.MutMark})
	f, err := st.Append(logName)
	if err != nil {
		t.Fatal(err)
	}
	torn := frame[:len(frame)/2]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()

	lg2, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	rec, rep, err := lg2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.TornBytes != len(torn) {
		t.Errorf("TornBytes = %d, want %d", rep.TornBytes, len(torn))
	}
	sameDigest(t, n, rec)

	// The torn tail was physically truncated: a third open sees a clean log.
	lg2.Close()
	lg3, err := Open(st, Options{})
	if err != nil {
		t.Fatalf("reopen after truncation: %v", err)
	}
	if _, rep3, err := lg3.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	} else if rep3.TornBytes != 0 {
		t.Errorf("TornBytes after truncation = %d, want 0", rep3.TornBytes)
	}
}

func TestCorruptMidLogIsHardError(t *testing.T) {
	st := NewMemStorage()
	_, lg := buildJournaled(t, st, Options{})
	lg.Close()
	raw, err := st.ReadAll(logName)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the log.
	corrupted := append([]byte(nil), raw...)
	corrupted[len(corrupted)/2] ^= 0xff
	f, _ := st.Create(logName)
	f.Write(corrupted)
	f.Sync()
	f.Close()

	if _, err := Open(st, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt log")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("error %q does not mention corruption", err)
	}
}

func TestGroupCommitCrashLosesOnlyUnsyncedTail(t *testing.T) {
	st := NewMemStorage()
	lg, err := Open(st, Options{Sync: SyncGroup, GroupEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := core.NewNetwork(true)
	if err := lg.AttachTo(n); err != nil {
		t.Fatal(err)
	}
	// Records: init, then 6 peers = 7 appends. Group boundary at 4: records
	// 5..7 are unsynced and must vanish at the crash.
	for i := 1; i <= 6; i++ {
		if _, err := n.AddPeer(graph.PeerID(fmt.Sprintf("p%d", i)), testSchema("s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.InjectCrash(0); err != nil {
		t.Fatalf("InjectCrash: %v", err)
	}

	lg2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, rep, err := lg2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.LogRecords != 4 {
		t.Errorf("recovered %d records, want 4 (the synced prefix)", rep.LogRecords)
	}
	if got := rec.NumPeers(); got != 3 {
		t.Errorf("recovered %d peers, want 3", got)
	}
}

func TestInjectCrashTornTail(t *testing.T) {
	for _, cut := range []int{0, 1, 5, 1 << 20} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			st := NewMemStorage()
			n, lg := buildJournaled(t, st, Options{})
			frame := lg.MarkFrameSize()
			if err := lg.InjectCrash(cut); err != nil {
				t.Fatalf("InjectCrash: %v", err)
			}
			lg2, err := Open(st, Options{})
			if err != nil {
				t.Fatalf("Open after crash: %v", err)
			}
			rec, rep, err := lg2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			want := cut
			if want > frame {
				want = frame
			}
			if want >= frame {
				want = 0 // the whole mark frame survived: a complete no-op record
			}
			if rep.TornBytes != want {
				t.Errorf("TornBytes = %d, want %d", rep.TornBytes, want)
			}
			sameDigest(t, n, rec)
			samePosteriors(t, posteriors(t, n), posteriors(t, rec), 0)
		})
	}
}

// failCreateStorage fails every Create of the checkpoint temp file, so
// checkpoints error while the log keeps appending.
type failCreateStorage struct {
	Storage
	failing bool
	fails   int
}

func (f *failCreateStorage) Create(name string) (File, error) {
	if f.failing && name == tmpName {
		f.fails++
		return nil, fmt.Errorf("injected checkpoint failure %d", f.fails)
	}
	return f.Storage.Create(name)
}

func TestCheckpointFailureRetriesWithBackoff(t *testing.T) {
	fst := &failCreateStorage{Storage: NewMemStorage(), failing: true}
	var warnings []string
	lg, err := Open(fst, Options{CheckpointEvery: 2, Logf: func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	n := core.NewNetwork(true)
	if err := lg.AttachTo(n); err != nil {
		t.Fatal(err)
	}
	addPeers := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			id := graph.PeerID(fmt.Sprintf("p%d", n.NumPeers()))
			if _, err := n.AddPeer(id, testSchema("s")); err != nil {
				t.Fatal(err)
			}
		}
	}
	addPeers(2) // 3 records >= 2: due
	if err := lg.MaybeCheckpoint(n); err != nil {
		t.Fatalf("MaybeCheckpoint must degrade gracefully, got %v", err)
	}
	if fst.fails != 1 || len(warnings) != 1 {
		t.Fatalf("fails=%d warnings=%d, want 1/1", fst.fails, len(warnings))
	}
	// Backoff: the next attempt needs 2<<1 = 4 records since checkpoint.
	if err := lg.MaybeCheckpoint(n); err != nil || fst.fails != 1 {
		t.Fatalf("attempted again before backoff elapsed (fails=%d, err=%v)", fst.fails, err)
	}
	addPeers(1) // 4 records: due again
	if err := lg.MaybeCheckpoint(n); err != nil || fst.fails != 2 {
		t.Fatalf("no retry after backoff elapsed (fails=%d, err=%v)", fst.fails, err)
	}
	// The log kept growing through the failures.
	if got := lg.SinceCheckpoint(); got != 4 {
		t.Errorf("SinceCheckpoint = %d, want 4", got)
	}
	if lg.Stats().CheckpointFailures != 2 {
		t.Errorf("Stats().CheckpointFailures = %d, want 2", lg.Stats().CheckpointFailures)
	}
	// Storage heals: the next due attempt succeeds and resets the backoff.
	fst.failing = false
	addPeers(5) // 9 records >= 2<<2 = 8: due
	if err := lg.MaybeCheckpoint(n); err != nil {
		t.Fatal(err)
	}
	if got := lg.SinceCheckpoint(); got != 0 {
		t.Errorf("SinceCheckpoint after healed checkpoint = %d, want 0", got)
	}
	// And the recovered state matches.
	lg.Close()
	lg2, err := Open(fst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, rep, err := lg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checkpoint == nil {
		t.Fatal("no checkpoint after storage healed")
	}
	sameDigest(t, n, rec)
}

func TestDirStorage(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, lg := buildJournaled(t, st, Options{Sync: SyncGroup})
	if err := lg.Checkpoint(n); err != nil {
		t.Fatalf("Checkpoint on disk: %v", err)
	}
	if _, err := n.AddPeer("p5", testSchema("p5")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, rep, err := lg2.Recover()
	if err != nil {
		t.Fatalf("Recover from disk: %v", err)
	}
	if rep.Checkpoint == nil || !rep.DigestOK {
		t.Errorf("report = %+v, want verified checkpoint", rep)
	}
	sameDigest(t, n, rec)
	if err := lg2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cfg := discoverCfg()
	muts := []core.Mutation{
		{Kind: core.MutInit, Directed: true},
		{Kind: core.MutAddPeer, Peer: "p1", SchemaName: "s", Attrs: testAttrs},
		{Kind: core.MutAddMapping, Edge: "m12", From: "p1", To: "p2",
			Pairs: []core.AttrPair{{From: "a", To: "b"}, {From: "c", To: "c"}}},
		{Kind: core.MutRemovePeer, Peer: "p1"},
		{Kind: core.MutRemoveMapping, Edge: "m12"},
		{Kind: core.MutSetPrior, Peer: "p1", Edge: "m12", Attr: "a", Prior: 0.75},
		{Kind: core.MutDiscover, Cfg: &cfg},
		{Kind: core.MutDiscoverInc, Cfg: &cfg, Changed: []graph.EdgeID{"m12", "m23"}},
		{Kind: core.MutFeedback, FbOpts: &core.FeedbackOptions{Delta: 0.25, Noise: 0.02},
			Groups: []core.FeedbackGroup{{Attr: "a", Chain: []graph.EdgeID{"m12"}, Pos: 3, Neg: 1}}},
		{Kind: core.MutPriorSamples, Samples: []core.PriorSample{
			{Peer: "p1", Mapping: "m12", Attr: "a", Sample: 0.5},
			{Peer: "p1", Mapping: "m12", Attr: "a", Sample: 0.25}}},
		{Kind: core.MutCheckpoint, Checkpoint: &core.CheckpointInfo{
			LastSeq: 42, Peers: 3, Mappings: 4, Replicas: 5, Vars: 6, Pins: 1, Digest: "abc"}},
		{Kind: core.MutMark},
	}
	var buf []byte
	for i, m := range muts {
		buf = appendRecord(buf, uint64(i+1), m)
	}
	recs, clean, torn, err := scan(buf)
	if err != nil || torn || clean != len(buf) {
		t.Fatalf("scan: err=%v torn=%v clean=%d/%d", err, torn, clean, len(buf))
	}
	if len(recs) != len(muts) {
		t.Fatalf("scanned %d records, want %d", len(recs), len(muts))
	}
	for i, r := range recs {
		if r.seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.seq, i+1)
		}
		if !reflect.DeepEqual(r.mut, muts[i]) {
			t.Errorf("record %d (%s) did not round-trip:\n got %+v\nwant %+v", i, muts[i].Kind, r.mut, muts[i])
		}
	}
	// Canonical encoding: re-encoding the decoded records reproduces the
	// exact bytes.
	var re []byte
	for _, r := range recs {
		re = appendRecord(re, r.seq, r.mut)
	}
	if !bytes.Equal(re, buf) {
		t.Error("re-encoding decoded records does not reproduce the log bytes")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"group", SyncGroup}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestOpenErrors(t *testing.T) {
	// Empty storage recovers nothing.
	lg, err := Open(NewMemStorage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !lg.Empty() {
		t.Error("fresh log is not Empty")
	}
	if _, _, err := lg.Recover(); err == nil {
		t.Error("Recover on empty log: want error")
	}

	// Directedness mismatch on attach to a recovered log.
	st := NewMemStorage()
	_, lg2 := buildJournaled(t, st, Options{})
	lg2.Close()
	lg3, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg3.AttachTo(core.NewNetwork(false)); err == nil {
		t.Error("AttachTo with mismatched directedness: want error")
	}

	// A log that does not start with init cannot recover.
	st2 := NewMemStorage()
	f, _ := st2.Create(logName)
	f.Write(appendRecord(nil, 1, core.Mutation{Kind: core.MutMark}))
	f.Sync()
	f.Close()
	lg4, err := Open(st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lg4.Recover(); err == nil {
		t.Error("Recover without init record: want error")
	}
}

func TestStatsAndSync(t *testing.T) {
	st := NewMemStorage()
	lg, err := Open(st, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	n := core.NewNetwork(true)
	if err := lg.AttachTo(n); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddPeer("p1", testSchema("s")); err != nil {
		t.Fatal(err)
	}
	s := lg.Stats()
	if s.Records != 2 || s.Bytes == 0 {
		t.Errorf("Stats = %+v, want 2 records and nonzero bytes", s)
	}
	if s.Syncs != 0 {
		t.Errorf("SyncOff issued %d syncs", s.Syncs)
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	if lg.Stats().Syncs != 1 {
		t.Errorf("explicit Sync not counted")
	}
	lg.Close()
	if err := lg.Append(core.Mutation{Kind: core.MutMark}); err == nil {
		t.Error("Append after Close: want error")
	}
}
