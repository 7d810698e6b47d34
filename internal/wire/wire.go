// Package wire is the typed, versioned, deterministic binary protocol every
// PDMS message travels in. The paper's claim (§4.3) is that mapping-quality
// inference is embeddable in the network — peers compute locally and
// exchange *small remote messages* — so the transport boundary must carry
// real bytes, not in-process Go values. This package defines one frame type
// per message the stack sends:
//
//   - Remote — a belief-propagation µ-message (variable→factor, §4.3)
//   - Probe — a TTL-bounded structure-discovery probe (§3.2.1)
//   - Piggyback — a batch of µ-messages riding on a query hop (§4.3.2)
//
// Kinds 4 and 5 were the control frames of a goroutine-per-peer
// asynchronous runtime that the residual schedule replaced; they are retired,
// Decode rejects them, and they are never reused. Version stays 1: no
// remaining frame changed its bytes, and wire frames are never persisted.
//
// A frame is a version byte, a kind byte and the kind's fields in the
// canonical encoding of internal/canon, which owns the strictness rules
// (minimal varints, 0/1 booleans, bounded lengths, no trailing bytes); this
// package adds only the version and kind checks. So encode(decode(b)) == b
// for every accepted input — FuzzWireRoundTrip pins the property and
// TestFrameFormatPinned the bytes. Determinism matters beyond hygiene: golden
// traces byte-compare runs across transports, including one that pushes
// every frame through a real TCP socket.
//
// Remote frames are the per-round traffic of detection, so they also have an
// in-place path: AppendRemote writes a frame without boxing it into a
// Message, and DecodeRemote reads one without copying its evidence ID — the
// ID comes back as a view into the frame. Both share their field writer and
// reader with Append and Decode, accept and emit exactly the same bytes, and
// allocate nothing.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/schema"
)

// Version is the protocol version emitted by Encode and required by Decode.
const Version = 1

// Kind discriminates the frame types.
type Kind uint8

// Frame kinds. Values are part of the wire format; never renumber, and
// never reuse the retired 4 and 5.
const (
	KindRemote    Kind = 1
	KindProbe     Kind = 2
	KindPiggyback Kind = 3
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindRemote:
		return "remote"
	case KindProbe:
		return "probe"
	case KindPiggyback:
		return "piggyback"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is one decodable frame payload.
type Message interface {
	// WireKind returns the frame's kind byte.
	WireKind() Kind
}

// Remote is a belief-propagation µ-message: the sender's variable→factor
// message for position Pos of the evidence factor EvID (§4.3).
type Remote struct {
	EvID string
	Pos  int
	// Msg is the unnormalized message over {Correct, Incorrect}.
	Msg [2]float64
}

// WireKind implements Message.
func (Remote) WireKind() Kind { return KindRemote }

// Probe is a structure-discovery probe flooded with a TTL (§3.2.1): the path
// from Origin it has taken so far. The flood finds structures only, so Attr,
// Image and Lost travel empty; they stay in the version 1 layout, and dropping
// them is a frame change that needs a new Version.
type Probe struct {
	Origin graph.PeerID
	Attr   schema.Attribute
	Image  schema.Attribute
	Lost   graph.EdgeID
	TTL    int
	Steps  []graph.Step
}

// WireKind implements Message.
func (Probe) WireKind() Kind { return KindProbe }

// PiggybackEntry is one relayed µ-message with its freshness stamp.
type PiggybackEntry struct {
	EvID string
	Pos  int
	Seq  uint64
	Msg  [2]float64
}

// Piggyback is the batch of µ-messages carried on one query hop of the lazy
// schedule (§4.3.2): zero dedicated messages, everything rides the workload.
type Piggyback struct {
	Entries []PiggybackEntry
}

// WireKind implements Message.
func (Piggyback) WireKind() Kind { return KindPiggyback }

// Encode renders the message as a canonical binary frame.
//
//pdms:deterministic
func Encode(m Message) []byte {
	return Append(nil, m)
}

// Append appends the canonical frame for m to dst and returns the result.
func Append(dst []byte, m Message) []byte {
	dst = append(dst, Version, byte(m.WireKind()))
	switch v := m.(type) {
	case Remote:
		dst = appendRemoteFields(dst, v)
	case Probe:
		dst = canon.String(dst, v.Origin)
		dst = canon.String(dst, v.Attr)
		dst = canon.String(dst, v.Image)
		dst = canon.String(dst, v.Lost)
		dst = canon.Uint(dst, uint64(v.TTL))
		dst = canon.Uint(dst, uint64(len(v.Steps)))
		for _, s := range v.Steps {
			dst = canon.String(dst, s.Edge)
			dst = canon.Bool(dst, s.Forward)
		}
	case Piggyback:
		dst = canon.Uint(dst, uint64(len(v.Entries)))
		for _, e := range v.Entries {
			dst = canon.String(dst, e.EvID)
			dst = canon.Uint(dst, uint64(e.Pos))
			dst = canon.Uint(dst, e.Seq)
			dst = canon.Float(dst, e.Msg[0])
			dst = canon.Float(dst, e.Msg[1])
		}
	default:
		panic(fmt.Sprintf("wire: unknown message type %T", m))
	}
	return dst
}

// AppendRemote appends the canonical frame for v to dst without boxing v
// into a Message: the same bytes as Append(dst, v).
func AppendRemote(dst []byte, v Remote) []byte {
	return appendRemoteFields(append(dst, Version, byte(KindRemote)), v)
}

// appendRemoteFields writes a Remote's fields, in format order.
func appendRemoteFields(dst []byte, v Remote) []byte {
	dst = canon.String(dst, v.EvID)
	dst = canon.Uint(dst, uint64(v.Pos))
	dst = canon.Float(dst, v.Msg[0])
	return canon.Float(dst, v.Msg[1])
}

// readRemoteFields reads back what appendRemoteFields wrote; evID is a view
// into the reader's input.
func readRemoteFields(r *canon.Reader) (evID []byte, pos int, msg [2]float64) {
	evID = r.View()
	pos = r.Uint()
	msg[0] = r.Float()
	msg[1] = r.Float()
	return evID, pos, msg
}

var (
	errUnknownKind = errors.New("unknown kind")
	errNotRemote   = errors.New("not a remote frame")
)

// readHeader reads a frame's version and kind bytes, failing r on a version
// other than Version.
func readHeader(r *canon.Reader) Kind {
	if ver := r.Byte(); ver != Version {
		r.Fail(fmt.Errorf("unsupported version %d", ver))
	}
	return Kind(r.Byte())
}

// DecodeRemote parses one Remote frame in place. It accepts exactly the
// frames Decode returns a Remote for, with the same fields, but allocates
// nothing: evID is a view into b, valid only as long as b is.
func DecodeRemote(b []byte) (evID []byte, pos int, msg [2]float64, err error) {
	r := canon.Read(b)
	k := readHeader(&r)
	if k != KindRemote {
		r.Fail(errNotRemote)
	}
	evID, pos, msg = readRemoteFields(&r)
	if err := r.Err(); err != nil {
		return nil, 0, [2]float64{}, fmt.Errorf("wire: decoding %s: %w", k, err)
	}
	return evID, pos, msg, nil
}

// Decode parses one canonical frame. It fails on unknown versions or kinds,
// truncated or trailing bytes, and non-canonical encodings. Each arm reads
// the fields its Append arm wrote, in the same order; the reader's first
// failure sticks, so the one check follows the switch.
func Decode(b []byte) (Message, error) {
	r := canon.Read(b)
	k := readHeader(&r)
	var m Message
	switch k {
	case KindRemote:
		evID, pos, msg := readRemoteFields(&r)
		m = Remote{EvID: string(evID), Pos: pos, Msg: msg}
	case KindProbe:
		var v Probe
		v.Origin = graph.PeerID(r.Str())
		v.Attr = schema.Attribute(r.Str())
		v.Image = schema.Attribute(r.Str())
		v.Lost = graph.EdgeID(r.Str())
		v.TTL = r.Uint()
		v.Steps = canon.Slice[graph.Step](&r, 2)
		for i := range v.Steps {
			v.Steps[i].Edge = graph.EdgeID(r.Str())
			v.Steps[i].Forward = r.Bool()
		}
		m = v
	case KindPiggyback:
		var v Piggyback
		v.Entries = canon.Slice[PiggybackEntry](&r, 19)
		for i := range v.Entries {
			e := &v.Entries[i]
			e.EvID = r.Str()
			e.Pos = r.Uint()
			e.Seq = r.Uvarint()
			e.Msg[0] = r.Float()
			e.Msg[1] = r.Float()
		}
		m = v
	default:
		r.Fail(errUnknownKind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", k, err)
	}
	return m, nil
}
