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

// Probe is a structure-discovery probe flooded with a TTL (§3.2.1). It
// carries the image of the origin attribute under the mappings traversed so
// far; Lost is the first edge whose mapping had no correspondence (⊥), after
// which Image is meaningless.
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
		dst = canon.String(dst, v.EvID)
		dst = canon.Uint(dst, uint64(v.Pos))
		dst = canon.Float(dst, v.Msg[0])
		dst = canon.Float(dst, v.Msg[1])
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

var errUnknownKind = errors.New("unknown kind")

// Decode parses one canonical frame. It fails on unknown versions or kinds,
// truncated or trailing bytes, and non-canonical encodings. Each arm reads
// the fields its Append arm wrote, in the same order; the reader's first
// failure sticks, so the one check follows the switch.
func Decode(b []byte) (Message, error) {
	r := canon.Read(b)
	if ver := r.Byte(); ver != Version {
		r.Fail(fmt.Errorf("unsupported version %d", ver))
	}
	k := Kind(r.Byte())
	var m Message
	switch k {
	case KindRemote:
		var v Remote
		v.EvID = r.Str()
		v.Pos = r.Uint()
		v.Msg[0] = r.Float()
		v.Msg[1] = r.Float()
		m = v
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
