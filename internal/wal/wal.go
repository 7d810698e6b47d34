// Package wal is the durability plane of the PDMS: an append-only
// write-ahead log for every state mutation the network ingests — evidence
// discovery, mapping/peer churn, priors and feedback observations — with
// CRC-framed records in the internal/wire encoding conventions, configurable
// fsync policies, periodic checkpoints that replace the log with the
// network's own canonical export (core.Network.DurableState), and a recovery
// path that rebuilds a bit-equivalent network by applying checkpoint + log
// suffix through core.Network.Apply. The package knows frames, CRCs, sequence
// numbers, fsync policy, torn tails and checkpoint files; what a mutation
// does to a network is internal/core's business alone.
//
// Belief-propagation messages are not logged: detection is deterministic
// given the durable evidence state and a seed, so a crashed run is simply
// re-run. That keeps the log proportional to ingested facts, not rounds.
package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// SyncPolicy selects when appends reach the disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: nothing acknowledged is ever
	// lost. The zero value, because durability should be opt-out.
	SyncAlways SyncPolicy = iota
	// SyncGroup batches fsyncs: one every Options.GroupEvery appends (group
	// commit). A crash loses at most the unsynced tail, which recovery
	// discards cleanly.
	SyncGroup
	// SyncOff never fsyncs; the OS decides. Fastest, weakest.
	SyncOff
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseSyncPolicy parses "always", "group" or "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, group or off)", s)
}

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy; zero value SyncAlways.
	Sync SyncPolicy
	// GroupEvery is the group-commit batch size under SyncGroup: an fsync
	// every N appends. Counting appends (not wall time) keeps runs
	// deterministic. Default 32.
	GroupEvery int
	// CheckpointEvery triggers MaybeCheckpoint once this many records have
	// accumulated since the last checkpoint. Default 4096; negative
	// disables automatic checkpoints.
	CheckpointEvery int
	// Logf receives warnings (checkpoint failures). Nil discards.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.GroupEvery <= 0 {
		o.GroupEvery = 32
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4096
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// File names within a Storage.
const (
	logName  = "wal.log"
	ckptName = "wal.ckpt"
	tmpName  = "wal.ckpt.tmp"
)

// maxCheckpointBackoff caps the exponential checkpoint retry delay at
// CheckpointEvery << 6 records.
const maxCheckpointBackoff = 6

// Stats counts a Log's activity. Latencies are cumulative wall time spent
// inside Append (write + any fsync), for the commit-cost tables in
// PERFORMANCE.md.
type Stats struct {
	Records            int   // records appended this session
	Bytes              int64 // bytes appended this session
	Syncs              int   // fsyncs issued by appends
	Checkpoints        int   // checkpoints taken
	CheckpointFailures int
	AppendNs           int64 // cumulative Append wall time
	MaxAppendNs        int64 // slowest single Append
}

// RecoverReport describes what Open found and Recover replayed.
type RecoverReport struct {
	// CheckpointRecords and LogRecords count the replayable mutations from
	// each source (the checkpoint header is not counted).
	CheckpointRecords, LogRecords int
	// TornBytes is the size of the discarded torn tail, 0 if the log ended
	// cleanly.
	TornBytes int
	// Checkpoint is the checkpoint header, if a checkpoint existed.
	Checkpoint *core.CheckpointInfo
	// DigestOK reports that the checkpoint's stamped inference digest was
	// verified against the rebuilt network (always true when no digest was
	// stamped or no checkpoint existed).
	DigestOK bool
	// Discovered reports whether any discovery pass was replayed — i.e.
	// the recovered network carries evidence, not just topology.
	Discovered bool
}

// Log is a write-ahead log over a Storage. It implements core.Journal: attach
// it with AttachTo and every network mutation is framed, sequenced and
// persisted before it applies. A Log is safe for use from one mutating
// goroutine (the network's owner); the internal lock only guards the stats
// surface for concurrent readers.
type Log struct {
	mu   sync.Mutex
	st   Storage
	opts Options

	f      File   // current append handle on logName
	seq    uint64 // last assigned sequence number
	buf    []byte // scratch frame buffer
	closed bool

	recovered []record // checkpoint+log records scanned by Open, for Recover
	ckptInfo  *core.CheckpointInfo
	ckptCount int // replayable records that came from the checkpoint
	tornBytes int

	sinceCkpt int // records since the last checkpoint
	ckptFails int // consecutive checkpoint failures, drives backoff

	unsynced int // appends since the last fsync (group commit)
	stats    Stats
}

// Open scans the storage — checkpoint first, then log — validates every
// frame, truncates a torn tail (an interrupted final write) and returns a
// Log positioned to append. The scanned records are kept for Recover and
// interpreted by nobody here. A corrupt checkpoint or a mid-log CRC failure
// is a hard error: recovery must never replay guessed state. Use Recover to
// rebuild the network, then AttachTo to resume journaling onto it.
func Open(st Storage, opts Options) (*Log, error) {
	l := &Log{st: st, opts: opts.withDefaults()}

	ckpt, err := st.ReadAll(ckptName)
	switch {
	case err == nil:
		recs, _, torn, serr := scan(ckpt)
		if serr != nil {
			return nil, fmt.Errorf("wal: checkpoint: %w", serr)
		}
		if torn {
			return nil, fmt.Errorf("wal: checkpoint is truncated (rename should be atomic)")
		}
		if len(recs) == 0 || recs[0].mut.Kind != core.MutCheckpoint {
			return nil, fmt.Errorf("wal: checkpoint does not start with a header record")
		}
		l.ckptInfo = recs[0].mut.Checkpoint
		l.recovered = recs[1:]
		l.ckptCount = len(recs) - 1
		l.seq = l.ckptInfo.LastSeq
	case isNotExist(err):
		// fresh storage
	default:
		return nil, fmt.Errorf("wal: reading checkpoint: %w", err)
	}

	logBytes, err := st.ReadAll(logName)
	if err != nil && !isNotExist(err) {
		return nil, fmt.Errorf("wal: reading log: %w", err)
	}
	recs, clean, torn, serr := scan(logBytes)
	if serr != nil {
		return nil, serr
	}
	if torn {
		l.tornBytes = len(logBytes) - clean
		// Rewrite the log as its clean prefix: the torn record was never
		// acknowledged, so dropping it IS the correct recovery.
		f, err := st.Create(logName)
		if err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if _, err := f.Write(logBytes[:clean]); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	last := l.seq
	for _, r := range recs {
		if l.ckptInfo != nil && r.seq <= l.ckptInfo.LastSeq {
			// Already covered by the checkpoint (the post-checkpoint log
			// truncation did not land before the crash).
			continue
		}
		if r.seq <= last {
			return nil, &CorruptError{Err: fmt.Errorf("sequence %d not increasing after %d", r.seq, last)}
		}
		last = r.seq
		l.recovered = append(l.recovered, r)
		l.sinceCkpt++
	}
	l.seq = last

	f, err := st.Append(logName)
	if err != nil {
		return nil, fmt.Errorf("wal: opening log for append: %w", err)
	}
	l.f = f
	return l, nil
}

func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}

// Empty reports whether the log holds no records at all (fresh storage).
func (l *Log) Empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq == 0 && len(l.recovered) == 0
}

// AttachTo wires the log to a network: a virgin log journals the opening
// MutInit record, a recovered one verifies directedness matches its first
// record, and the network's future mutations flow through Append.
func (l *Log) AttachTo(n *core.Network) error {
	if l.Empty() {
		if err := l.Append(core.Mutation{Kind: core.MutInit, Directed: n.Directed()}); err != nil {
			return err
		}
	} else if len(l.recovered) > 0 {
		if first := l.recovered[0].mut; first.Kind == core.MutInit && first.Directed != n.Directed() {
			return fmt.Errorf("wal: log records a directed=%v network, got directed=%v",
				first.Directed, n.Directed())
		}
	}
	n.AttachWAL(l)
	return nil
}

// Append implements core.Journal: frame, sequence and persist (per the fsync
// policy). Nothing of the record is retained in memory.
func (l *Log) Append(m core.Mutation) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	start := time.Now()
	l.seq++
	l.buf = appendRecord(l.buf[:0], l.seq, m)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.stats.Records++
	l.stats.Bytes += int64(len(l.buf))
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.stats.Syncs++
	case SyncGroup:
		l.unsynced++
		if l.unsynced >= l.opts.GroupEvery {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("wal: sync: %w", err)
			}
			l.stats.Syncs++
			l.unsynced = 0
		}
	}
	l.sinceCkpt++
	ns := time.Since(start).Nanoseconds()
	l.stats.AppendNs += ns
	if ns > l.stats.MaxAppendNs {
		l.stats.MaxAppendNs = ns
	}
	return nil
}

// Sync forces an fsync regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.stats.Syncs++
	l.unsynced = 0
	return nil
}

// SinceCheckpoint returns how many records the log holds beyond the last
// checkpoint.
func (l *Log) SinceCheckpoint() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

// Stats returns a copy of the session counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Recover rebuilds a network from the scanned checkpoint + log records by
// applying them in order (core.Network.Apply). The returned
// network has no journal attached (replay must not re-journal); call
// AttachTo to resume journaling onto it. The report's DigestOK confirms the
// checkpoint's stamped inference digest against the rebuilt state at the
// checkpoint boundary.
func (l *Log) Recover() (*core.Network, RecoverReport, error) {
	l.mu.Lock()
	recs := l.recovered
	rep := RecoverReport{
		CheckpointRecords: l.ckptCount,
		LogRecords:        len(l.recovered) - l.ckptCount,
		TornBytes:         l.tornBytes,
		Checkpoint:        l.ckptInfo,
		DigestOK:          true,
	}
	l.mu.Unlock()

	if len(recs) == 0 {
		return nil, rep, fmt.Errorf("wal: nothing to recover (empty log)")
	}
	if recs[0].mut.Kind != core.MutInit {
		return nil, rep, fmt.Errorf("wal: log does not begin with init (got %s)", recs[0].mut.Kind)
	}
	n := core.NewNetwork(recs[0].mut.Directed)
	for i, r := range recs {
		if i == 0 {
			continue
		}
		if err := n.Apply(r.mut); err != nil {
			return nil, rep, fmt.Errorf("wal: replaying record %d (%s): %w", i, r.mut.Kind, err)
		}
		switch r.mut.Kind {
		case core.MutDiscover, core.MutDiscoverInc:
			rep.Discovered = true
		}
		// Verify the digest at the checkpoint boundary, where it was
		// stamped: after the last checkpoint-body record, before any log
		// suffix.
		if i == rep.CheckpointRecords-1 && rep.Checkpoint != nil && rep.Checkpoint.Digest != "" {
			if got := DigestNetwork(n); got != rep.Checkpoint.Digest {
				rep.DigestOK = false
				return nil, rep, fmt.Errorf("wal: checkpoint digest mismatch: log %.12s, rebuilt %.12s",
					rep.Checkpoint.Digest, got)
			}
		}
	}
	return n, rep, nil
}

// DigestNetwork fingerprints a network's inference state: the SHA-256 (hex)
// of its InferenceDigest lines. This is the value checkpoints stamp and
// recovery verifies.
func DigestNetwork(n *core.Network) string {
	h := sha256.New()
	for _, line := range n.InferenceDigest() {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint writes the live network's canonical export (n.DurableState())
// behind a header stamped with its inference digest and summary counts —
// which Recover then verifies — to a fresh checkpoint file (temp name,
// synced, atomically renamed) and truncates the log. n must be the network
// the log is attached to: the checkpoint replaces the journaled history with
// the state that history produced.
func (l *Log) Checkpoint(n *core.Network) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if n == nil {
		return fmt.Errorf("wal: checkpoint needs the live network to export")
	}
	// Everything checkpointed must first be durable in the log: if the
	// rename lands and the truncation doesn't, replay dedups by sequence.
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: checkpoint: syncing log: %w", err)
	}
	l.unsynced = 0

	info := core.CheckpointInfo{
		LastSeq:  l.seq,
		Peers:    n.NumPeers(),
		Mappings: n.Topology().NumEdges(),
		Digest:   DigestNetwork(n),
	}
	for _, line := range n.InferenceDigest() {
		switch {
		case strings.Contains(line, " ev "):
			info.Replicas++
		case strings.Contains(line, " var "):
			info.Vars++
		case strings.Contains(line, " pin "):
			info.Pins++
		}
	}

	buf := appendRecord(nil, info.LastSeq, core.Mutation{Kind: core.MutCheckpoint, Checkpoint: &info})
	for _, m := range n.DurableState() {
		buf = appendRecord(buf, 0, m)
	}

	f, err := l.st.Create(tmpName)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := l.st.Rename(tmpName, ckptName); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}

	// The checkpoint is durable; the log restarts empty.
	nf, err := l.st.Create(logName)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: restarting log: %w", err)
	}
	l.f.Close()
	l.f = nf
	l.sinceCkpt = 0
	l.ckptInfo = &info
	l.stats.Checkpoints++
	return nil
}

// MaybeCheckpoint checkpoints once enough records have accumulated
// (Options.CheckpointEvery). A failed checkpoint never wedges the caller:
// the log keeps growing, a warning surfaces through Options.Logf, and the
// next attempt is delayed exponentially (doubling the record interval, up
// to 64×) so a sick disk is not hammered every round.
func (l *Log) MaybeCheckpoint(n *core.Network) error {
	l.mu.Lock()
	every := l.opts.CheckpointEvery
	if every <= 0 || l.closed {
		l.mu.Unlock()
		return nil
	}
	backoff := l.ckptFails
	if backoff > maxCheckpointBackoff {
		backoff = maxCheckpointBackoff
	}
	due := l.sinceCkpt >= every<<backoff
	l.mu.Unlock()
	if !due {
		return nil
	}
	if err := l.Checkpoint(n); err != nil {
		l.mu.Lock()
		l.ckptFails++
		l.stats.CheckpointFailures++
		fails := l.ckptFails
		l.mu.Unlock()
		l.opts.Logf("wal: checkpoint failed (attempt %d, will retry with backoff): %v", fails, err)
		return nil
	}
	l.mu.Lock()
	l.ckptFails = 0
	l.mu.Unlock()
	return nil
}

// InjectCrash simulates a kill -9 with one record's write in flight: a
// MutMark frame is written without syncing, then the storage crashes keeping
// only cut bytes of the unsynced tail (a torn tail when 0 < cut < frame
// size). The log is dead afterwards; Open the storage again to recover.
// Requires a Storage implementing Crasher (MemStorage).
func (l *Log) InjectCrash(cut int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cr, ok := l.st.(Crasher)
	if !ok {
		return fmt.Errorf("wal: storage %T cannot inject crashes", l.st)
	}
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	l.seq++
	l.buf = appendRecord(l.buf[:0], l.seq, core.Mutation{Kind: core.MutMark})
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: crash injection: %w", err)
	}
	if cut > len(l.buf) {
		cut = len(l.buf)
	}
	if cut < 0 {
		cut = 0
	}
	cr.Crash(cut)
	l.closed = true
	l.f.Close()
	return nil
}

// MarkFrameSize returns the framed size of a MutMark record at the log's
// next sequence number — the range a seeded torn-tail cut should be drawn
// from.
func (l *Log) MarkFrameSize() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(appendRecord(nil, l.seq+1, core.Mutation{Kind: core.MutMark}))
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
