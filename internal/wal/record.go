package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schema"
)

// The on-disk record format is built from the same canonical fields as the
// wire frames — internal/canon owns the rules: minimal unsigned varints,
// big-endian IEEE-754 float bits, 0/1 booleans, bounded lengths, no trailing
// bytes — in a versioned payload wrapped in a CRC frame, so storage
// corruption is detected, not silently replayed:
//
//	u32be len(payload) | payload | u32be crc32-IEEE(payload)
//	payload = version byte | seq uvarint | kind byte | kind-specific fields
//
// An incomplete frame at the end of the log is a torn tail: the record was
// being written when the process died, it was never acknowledged, and
// recovery treats the log as ending cleanly before it. A complete frame
// whose CRC or payload does not check out is corruption and recovery fails
// loudly — replaying guessed state would be worse than refusing.

// Version is the WAL format version emitted and required by this package.
const Version = 1

// frameOverhead is the framing cost per record: length and CRC words.
const frameOverhead = 8

// maxRecordSize bounds a single record's payload; a length word beyond it
// on a complete frame is treated as corruption.
const maxRecordSize = 1 << 28

// record is one sequenced mutation as stored in the log.
type record struct {
	seq uint64
	mut core.Mutation
}

// appendRecord appends the framed encoding of (seq, m) to dst.
//
//pdms:deterministic
func appendRecord(dst []byte, seq uint64, m core.Mutation) []byte {
	payload := appendPayload(nil, seq, m)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

func appendPayload(dst []byte, seq uint64, m core.Mutation) []byte {
	dst = append(dst, Version)
	dst = canon.Uint(dst, seq)
	dst = append(dst, byte(m.Kind))
	switch m.Kind {
	case core.MutInit:
		dst = canon.Bool(dst, m.Directed)
	case core.MutAddPeer:
		dst = canon.String(dst, m.Peer)
		dst = canon.String(dst, m.SchemaName)
		dst = appendStrings(dst, m.Attrs)
	case core.MutAddMapping:
		dst = canon.String(dst, m.Edge)
		dst = canon.String(dst, m.From)
		dst = canon.String(dst, m.To)
		dst = canon.Uint(dst, uint64(len(m.Pairs)))
		for _, pr := range m.Pairs {
			dst = canon.String(dst, pr.From)
			dst = canon.String(dst, pr.To)
		}
	case core.MutRemovePeer:
		dst = canon.String(dst, m.Peer)
	case core.MutRemoveMapping:
		dst = canon.String(dst, m.Edge)
	case core.MutSetPrior:
		dst = canon.String(dst, m.Peer)
		dst = canon.String(dst, m.Edge)
		dst = canon.String(dst, m.Attr)
		dst = canon.Float(dst, m.Prior)
	case core.MutDiscover:
		dst = appendConfig(dst, m.Cfg)
	case core.MutDiscoverInc:
		dst = appendConfig(dst, m.Cfg)
		dst = appendStrings(dst, m.Changed)
	case core.MutFeedback:
		dst = canon.Float(dst, m.FbOpts.Delta)
		dst = canon.Float(dst, m.FbOpts.Noise)
		dst = canon.Bool(dst, m.FbOpts.NoTrust)
		dst = canon.Uint(dst, uint64(len(m.Groups)))
		for _, g := range m.Groups {
			dst = canon.String(dst, g.Attr)
			dst = appendStrings(dst, g.Chain)
			dst = canon.Uint(dst, uint64(g.Pos))
			dst = canon.Uint(dst, uint64(g.Neg))
			dst = canon.String(dst, g.Reporter)
		}
	case core.MutPriorSamples:
		dst = canon.Uint(dst, uint64(len(m.Samples)))
		for _, s := range m.Samples {
			dst = canon.String(dst, s.Peer)
			dst = canon.String(dst, s.Mapping)
			dst = canon.String(dst, s.Attr)
			dst = canon.Float(dst, s.Sample)
		}
	case core.MutCheckpoint:
		ci := m.Checkpoint
		dst = canon.Uint(dst, ci.LastSeq)
		dst = canon.Uint(dst, uint64(ci.Peers))
		dst = canon.Uint(dst, uint64(ci.Mappings))
		dst = canon.Uint(dst, uint64(ci.Replicas))
		dst = canon.Uint(dst, uint64(ci.Vars))
		dst = canon.Uint(dst, uint64(ci.Pins))
		dst = canon.String(dst, ci.Digest)
	case core.MutMark:
		// no payload
	default:
		panic(fmt.Sprintf("wal: unknown mutation kind %d", m.Kind))
	}
	return dst
}

var errUnknownKind = errors.New("unknown mutation kind")

// decodePayload parses one complete, CRC-verified payload strictly: an
// unknown version or kind and every non-canonical field (see internal/canon)
// is an error. Each arm reads the fields its appendPayload arm wrote, in the
// same order; the reader's first failure sticks, so the one check follows
// the switch.
func decodePayload(b []byte) (record, error) {
	r := canon.Read(b)
	var rec record
	if ver := r.Byte(); ver != Version {
		r.Fail(fmt.Errorf("unsupported version %d", ver))
	}
	rec.seq = r.Uvarint()
	m := &rec.mut
	m.Kind = core.MutKind(r.Byte())
	switch m.Kind {
	case core.MutInit:
		m.Directed = r.Bool()
	case core.MutAddPeer:
		m.Peer = graph.PeerID(r.Str())
		m.SchemaName = r.Str()
		m.Attrs = readStrings[schema.Attribute](&r)
	case core.MutAddMapping:
		m.Edge = graph.EdgeID(r.Str())
		m.From = graph.PeerID(r.Str())
		m.To = graph.PeerID(r.Str())
		m.Pairs = canon.Slice[core.AttrPair](&r, 2)
		for i := range m.Pairs {
			m.Pairs[i].From = schema.Attribute(r.Str())
			m.Pairs[i].To = schema.Attribute(r.Str())
		}
	case core.MutRemovePeer:
		m.Peer = graph.PeerID(r.Str())
	case core.MutRemoveMapping:
		m.Edge = graph.EdgeID(r.Str())
	case core.MutSetPrior:
		m.Peer = graph.PeerID(r.Str())
		m.Edge = graph.EdgeID(r.Str())
		m.Attr = schema.Attribute(r.Str())
		m.Prior = r.Float()
	case core.MutDiscover:
		m.Cfg = readConfig(&r)
	case core.MutDiscoverInc:
		m.Cfg = readConfig(&r)
		m.Changed = readStrings[graph.EdgeID](&r)
	case core.MutFeedback:
		m.FbOpts = new(core.FeedbackOptions)
		m.FbOpts.Delta = r.Float()
		m.FbOpts.Noise = r.Float()
		m.FbOpts.NoTrust = r.Bool()
		m.Groups = canon.Slice[core.FeedbackGroup](&r, 4)
		for i := range m.Groups {
			g := &m.Groups[i]
			g.Attr = schema.Attribute(r.Str())
			g.Chain = readStrings[graph.EdgeID](&r)
			g.Pos = r.Uint()
			g.Neg = r.Uint()
			g.Reporter = graph.PeerID(r.Str())
		}
	case core.MutPriorSamples:
		m.Samples = canon.Slice[core.PriorSample](&r, 11)
		for i := range m.Samples {
			s := &m.Samples[i]
			s.Peer = graph.PeerID(r.Str())
			s.Mapping = graph.EdgeID(r.Str())
			s.Attr = schema.Attribute(r.Str())
			s.Sample = r.Float()
		}
	case core.MutCheckpoint:
		ci := new(core.CheckpointInfo)
		ci.LastSeq = r.Uvarint()
		ci.Peers = r.Uint()
		ci.Mappings = r.Uint()
		ci.Replicas = r.Uint()
		ci.Vars = r.Uint()
		ci.Pins = r.Uint()
		ci.Digest = r.Str()
		m.Checkpoint = ci
	case core.MutMark:
		// no payload
	default:
		r.Fail(errUnknownKind)
	}
	if err := r.Err(); err != nil {
		return rec, fmt.Errorf("decoding %s: %w", m.Kind, err)
	}
	return rec, nil
}

func appendConfig(dst []byte, cfg *core.DiscoverConfig) []byte {
	dst = appendStrings(dst, cfg.Attrs)
	dst = canon.Uint(dst, uint64(cfg.MaxLen))
	dst = canon.Float(dst, cfg.Delta)
	dst = append(dst, byte(cfg.Granularity))
	return canon.Bool(dst, cfg.DisableParallelPaths)
}

func readConfig(r *canon.Reader) *core.DiscoverConfig {
	cfg := new(core.DiscoverConfig)
	cfg.Attrs = readStrings[schema.Attribute](r)
	cfg.MaxLen = r.Uint()
	cfg.Delta = r.Float()
	g := r.Byte()
	if g > byte(core.CoarseGrained) {
		r.Fail(fmt.Errorf("bad granularity byte %d", g))
	}
	cfg.Granularity = core.Granularity(g)
	cfg.DisableParallelPaths = r.Bool()
	return cfg
}

// appendStrings and readStrings are the counted string list: a length, then
// that many strings.
func appendStrings[S ~string](dst []byte, list []S) []byte {
	dst = canon.Uint(dst, uint64(len(list)))
	for _, s := range list {
		dst = canon.String(dst, s)
	}
	return dst
}

func readStrings[S ~string](r *canon.Reader) []S {
	list := canon.Slice[S](r, 1)
	for i := range list {
		list[i] = S(r.Str())
	}
	return list
}

// CorruptError reports a complete but invalid record: a CRC mismatch or a
// malformed payload mid-log. Unlike a torn tail, corruption is never
// silently dropped.
type CorruptError struct {
	Offset int   // byte offset of the offending frame
	Err    error // what failed
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record at offset %d: %v", e.Offset, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// scan parses framed records from b. It returns the decoded records, the
// number of bytes of clean frames consumed, and whether the remainder is a
// torn tail (an incomplete final frame — a write that never finished). Any
// complete frame that fails its CRC or payload check yields a CorruptError.
func scan(b []byte) (recs []record, clean int, torn bool, err error) {
	off := 0
	for off < len(b) {
		rest := len(b) - off
		if rest < 4 {
			return recs, off, true, nil
		}
		n := int(binary.BigEndian.Uint32(b[off:]))
		if n > maxRecordSize {
			return recs, off, false, &CorruptError{Offset: off, Err: fmt.Errorf("record length %d exceeds limit", n)}
		}
		if rest < 4+n+4 {
			return recs, off, true, nil
		}
		payload := b[off+4 : off+4+n]
		crc := binary.BigEndian.Uint32(b[off+4+n:])
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, off, false, &CorruptError{Offset: off, Err: fmt.Errorf("crc mismatch")}
		}
		rec, derr := decodePayload(payload)
		if derr != nil {
			return recs, off, false, &CorruptError{Offset: off, Err: derr}
		}
		recs = append(recs, rec)
		off += 4 + n + 4
	}
	return recs, off, false, nil
}
