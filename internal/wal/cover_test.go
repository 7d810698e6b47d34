package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/schema"
)

// splitFrames cuts a valid log into its frames.
func splitFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(b) > 0 {
		n := int(binary.BigEndian.Uint32(b))
		if len(b) < n+frameOverhead {
			t.Fatalf("short frame: %d bytes left, need %d", len(b), n+frameOverhead)
		}
		frames = append(frames, b[:n+frameOverhead])
		b = b[n+frameOverhead:]
	}
	return frames
}

// Every single-byte payload mutation — re-framed with a correct CRC so the
// decoder actually runs — either decodes strictly or fails cleanly, and
// whatever it accepts re-encodes canonically. This drives the decoder's
// error branches deterministically, complementing FuzzWALDecode.
func TestPayloadMutationsDecodeStrictly(t *testing.T) {
	for fi, frame := range splitFrames(t, validLogBytes()) {
		payload := frame[4 : len(frame)-4]
		for off := 0; off < len(payload); off++ {
			for _, delta := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), payload...)
				mut[off] ^= delta
				reframed := make([]byte, 0, len(mut)+frameOverhead)
				reframed = binary.BigEndian.AppendUint32(reframed, uint32(len(mut)))
				reframed = append(reframed, mut...)
				reframed = binary.BigEndian.AppendUint32(reframed, crc32.ChecksumIEEE(mut))
				recs, clean, torn, err := scan(reframed)
				if torn {
					t.Fatalf("frame %d off %d: complete frame reported torn", fi, off)
				}
				if err != nil {
					continue // strict decoder rejected the mutation: fine
				}
				if clean != len(reframed) || len(recs) != 1 {
					t.Fatalf("frame %d off %d: clean=%d recs=%d", fi, off, clean, len(recs))
				}
				re := appendRecord(nil, recs[0].seq, recs[0].mut)
				if !bytes.Equal(re, reframed) {
					t.Fatalf("frame %d off %d: accepted a non-canonical encoding", fi, off)
				}
			}
		}
	}
}

// A checkpoint taken after peer churn, stale feedback and a re-discovery
// folds all of it away and still recovers the exact network.
func TestCheckpointAfterChurn(t *testing.T) {
	st := NewMemStorage()
	lg, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := core.NewNetwork(true)
	if err := lg.AttachTo(n); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		id := graph.PeerID(fmt.Sprintf("p%d", i))
		if _, err := n.AddPeer(id, testSchema(string(id))); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		id       graph.EdgeID
		from, to graph.PeerID
	}{{"m12", "p1", "p2"}, {"m23", "p2", "p3"}, {"m31", "p3", "p1"},
		{"m45", "p4", "p5"}, {"m54", "p5", "p4"}, {"m14", "p1", "p4"}} {
		if _, err := n.AddMapping(e.id, e.from, e.to, idPairs()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Discover(discoverCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.IngestFeedback(core.FeedbackOptions{},
		core.QueryFeedback{Attr: "author", Chain: []graph.EdgeID{"m45"}, Polarity: feedback.Positive},
		core.QueryFeedback{Attr: "title", Chain: []graph.EdgeID{"m14"}, Polarity: feedback.Negative},
	); err != nil {
		t.Fatal(err)
	}
	if p, ok := n.Peer("p5"); ok {
		p.SetPrior("m54", "year", 0.3)
	}
	// Churn: p5 leaves, taking m45/m54, the m45 feedback group and its
	// prior with it; p4 keeps m14 and the negative feedback on it.
	n.RemovePeer("p5")
	if _, err := n.DiscoverIncremental(discoverCfg()); err != nil {
		t.Fatal(err)
	}
	// Re-discover from scratch: feedback factors are reset, then fresh
	// feedback lands post-reset.
	if _, err := n.Discover(discoverCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.IngestFeedback(core.FeedbackOptions{},
		core.QueryFeedback{Attr: "author", Chain: []graph.EdgeID{"m12", "m23"}, Polarity: feedback.Negative},
	); err != nil {
		t.Fatal(err)
	}
	if err := n.JournalError(); err != nil {
		t.Fatal(err)
	}

	// Reopen (replays the whole history), checkpoint from the recovered
	// network, and verify a second recovery matches.
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	lg2, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := lg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	sameDigest(t, n, rec)
	if err := lg2.AttachTo(rec); err != nil {
		t.Fatal(err)
	}
	if err := lg2.Checkpoint(rec); err != nil {
		t.Fatal(err)
	}
	lg2.Close()

	lg3, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec2, rep, err := lg3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DigestOK {
		t.Error("checkpoint digest did not verify after churn compaction")
	}
	if rep.Checkpoint.Peers != 4 || rep.Checkpoint.Mappings != 4 {
		t.Errorf("checkpoint counts %d peers %d mappings, want 4/4",
			rep.Checkpoint.Peers, rep.Checkpoint.Mappings)
	}
	sameDigest(t, n, rec2)
	samePosteriors(t, posteriors(t, n), posteriors(t, rec2), 0)
}

// Per-reporter feedback state survives both recovery paths. A departed
// reporter's tallies were retracted with it and must not come back from a
// checkpoint; two reporters of one chain keep one tally each, since trust
// weighs them apart. Each row recovers once by log replay and once through a
// checkpoint; both must land on the live network's tallies, trust and
// bit-equal posteriors.
func TestCheckpointKeepsReporters(t *testing.T) {
	verdicts := func(count int, reporter graph.PeerID, pol feedback.Polarity, attr string, chain ...graph.EdgeID) []core.QueryFeedback {
		out := make([]core.QueryFeedback, count)
		for i := range out {
			out[i] = core.QueryFeedback{Attr: schema.Attribute(attr), Chain: chain, Polarity: pol, Reporter: reporter}
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		reporters []graph.PeerID
		mutate    func(t *testing.T, n *core.Network)
	}{
		{"departed reporter", []graph.PeerID{"p9"}, func(t *testing.T, n *core.Network) {
			if _, err := n.AddPeer("p9", testSchema("p9")); err != nil {
				t.Fatal(err)
			}
			obs := append(verdicts(2, "p9", feedback.Negative, "year", "m12"),
				verdicts(1, "p9", feedback.Positive, "year", "m13")...)
			if _, err := n.IngestFeedback(core.FeedbackOptions{}, obs...); err != nil {
				t.Fatal(err)
			}
			n.RemovePeer("p9")
		}},
		{"two reporters, one chain", []graph.PeerID{"p3", "p4"}, func(t *testing.T, n *core.Network) {
			obs := append(verdicts(6, "p3", feedback.Negative, "year", "m12"),
				verdicts(6, "p4", feedback.Positive, "year", "m12")...)
			if _, err := n.IngestFeedback(core.FeedbackOptions{}, obs...); err != nil {
				t.Fatal(err)
			}
			if tr := n.ReporterTrust("p3"); tr >= 1 {
				t.Fatalf("fixture: dissenter p3 holds trust %v, want it discounted", tr)
			}
		}},
	} {
		for _, checkpoint := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/checkpoint=%v", tc.name, checkpoint), func(t *testing.T) {
				st := NewMemStorage()
				n, lg := buildJournaled(t, st, Options{})
				tc.mutate(t, n)
				if err := n.JournalError(); err != nil {
					t.Fatal(err)
				}
				if checkpoint {
					if err := lg.Checkpoint(n); err != nil {
						t.Fatal(err)
					}
				}
				if err := lg.Close(); err != nil {
					t.Fatal(err)
				}
				lg2, err := Open(st, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer lg2.Close()
				rec, rep, err := lg2.Recover()
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				if !rep.DigestOK || (rep.CheckpointRecords > 0) != checkpoint {
					t.Errorf("report = %+v, want DigestOK and checkpoint records iff checkpointed", rep)
				}
				sameDigest(t, n, rec)
				lf, lw := n.FeedbackFactors()
				if rf, rw := rec.FeedbackFactors(); lf != rf || lw != rw {
					t.Errorf("feedback factors %d/%d, recovered %d/%d", lf, lw, rf, rw)
				}
				for _, r := range tc.reporters {
					lf, lw := n.ReporterContribution(r)
					rf, rw := rec.ReporterContribution(r)
					if lf != rf || lw != rw {
						t.Errorf("reporter %s contributes %d/%d, recovered %d/%d", r, lf, lw, rf, rw)
					}
					if lt, rt := n.ReporterTrust(r), rec.ReporterTrust(r); lt != rt {
						t.Errorf("reporter %s trust %v, recovered %v", r, lt, rt)
					}
				}
				samePosteriors(t, posteriors(t, n), posteriors(t, rec), 0)
			})
		}
	}
}

func TestCorruptCheckpointIsHardError(t *testing.T) {
	st := NewMemStorage()
	n, lg := buildJournaled(t, st, Options{})
	if err := lg.Checkpoint(n); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	raw, err := st.ReadAll(ckptName)
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)/2] ^= 0xff
			return out
		},
		"torn tail": func(b []byte) []byte { return b[:len(b)-3] },
		"empty":     func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			f, _ := st.Create(ckptName)
			f.Write(mangle(raw))
			f.Sync()
			f.Close()
			if _, err := Open(st, Options{}); err == nil {
				t.Fatal("Open accepted a damaged checkpoint")
			}
		})
	}
}

// A checkpoint whose stamped digest is not a digest at all (damage that kept
// the CRC, or a foreign writer) fails recovery with the mismatch error.
func TestMalformedCheckpointDigestIsMismatch(t *testing.T) {
	st := NewMemStorage()
	buf := appendRecord(nil, 1, core.Mutation{Kind: core.MutCheckpoint, Checkpoint: &core.CheckpointInfo{LastSeq: 1, Digest: "abc"}})
	buf = appendRecord(buf, 0, core.Mutation{Kind: core.MutInit, Directed: true})
	buf = appendRecord(buf, 0, core.Mutation{Kind: core.MutAddPeer, Peer: "p1", SchemaName: "p1", Attrs: testAttrs})
	f, _ := st.Create(ckptName)
	f.Write(buf)
	f.Sync()
	f.Close()
	lg, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if _, rep, err := lg.Recover(); err == nil || rep.DigestOK {
		t.Errorf("Recover = %v, DigestOK %v; want a digest mismatch", err, rep.DigestOK)
	}
}

func TestSeqRegressionIsCorrupt(t *testing.T) {
	st := NewMemStorage()
	var buf []byte
	buf = appendRecord(buf, 1, core.Mutation{Kind: core.MutInit, Directed: true})
	buf = appendRecord(buf, 3, core.Mutation{Kind: core.MutMark})
	buf = appendRecord(buf, 2, core.Mutation{Kind: core.MutMark})
	f, _ := st.Create(logName)
	f.Write(buf)
	f.Sync()
	f.Close()
	_, err := Open(st, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want CorruptError for a sequence regression", err)
	}
	if ce.Unwrap() == nil {
		t.Error("CorruptError.Unwrap returned nil")
	}
}

func TestStorageRemoveAndDir(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", ds.Dir(), dir)
	}
	f, err := ds.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := ds.Remove("x"); err != nil {
		t.Errorf("Remove existing: %v", err)
	}
	if err := ds.Remove("x"); err != nil {
		t.Errorf("Remove missing is not a no-op: %v", err)
	}
	if _, err := ds.ReadAll("x"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadAll removed file: %v, want fs.ErrNotExist", err)
	}

	ms := NewMemStorage()
	g, _ := ms.Create("y")
	g.Write([]byte("data"))
	if err := ms.Remove("y"); err != nil {
		t.Errorf("MemStorage.Remove: %v", err)
	}
	if _, err := ms.ReadAll("y"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ReadAll removed mem file: %v, want fs.ErrNotExist", err)
	}
	if err := ms.Rename("y", "z"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Rename of missing mem file: %v, want fs.ErrNotExist", err)
	}
	if _, err := (&memHandle{st: ms, name: "y"}).Write([]byte("x")); err == nil {
		t.Error("Write through a stale handle to a removed file: want error")
	}
}

func TestInjectCrashNeedsCrasher(t *testing.T) {
	st, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lg, err := Open(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.InjectCrash(0); err == nil {
		t.Error("InjectCrash on non-Crasher storage: want error")
	}
	lg.Close()
}

func TestSyncAndCloseAfterClose(t *testing.T) {
	lg, err := Open(NewMemStorage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := lg.Sync(); err == nil {
		t.Error("Sync after Close: want error")
	}
	if err := lg.Checkpoint(core.NewNetwork(true)); err == nil {
		t.Error("Checkpoint after Close: want error")
	}
}

// A checkpoint is the network's export: without the network there is nothing
// to write, and the log must stay as it was.
func TestCheckpointNeedsNetwork(t *testing.T) {
	st := NewMemStorage()
	_, lg := buildJournaled(t, st, Options{})
	defer lg.Close()
	before := lg.SinceCheckpoint()
	if err := lg.Checkpoint(nil); err == nil {
		t.Fatal("Checkpoint(nil): want error")
	}
	if _, err := st.ReadAll(ckptName); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Checkpoint(nil) left a checkpoint file behind (ReadAll: %v)", err)
	}
	if got := lg.SinceCheckpoint(); got != before || lg.Stats().Checkpoints != 0 {
		t.Errorf("Checkpoint(nil) moved the log: since=%d (was %d), checkpoints=%d", got, before, lg.Stats().Checkpoints)
	}
}
