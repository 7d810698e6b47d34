// Package canon owns the rules that make the repo's binary formats — the
// frames of internal/wire and the records of internal/wal — canonical:
// integers and lengths are minimal unsigned varints, floats their IEEE-754
// bits big-endian, booleans one byte 0 or 1, strings a length and that many
// bytes; a length never exceeds what the bytes remaining could hold, and
// nothing follows the last field. So encode(decode(b)) == b for every
// accepted input.
//
// The append functions write one field each; Reader reads them back
// strictly, and its first failure sticks: every later read returns the zero
// value and consumes nothing, and Err reports that failure. A decoder
// therefore reads its fields straight through in format order, one line per
// field mirroring its encoder, and checks Err once at the end — no arm can
// forget a check. Keep the Reader a local value (r := canon.Read(b)) so it
// stays on the stack: decoding runs once per delivered message.
package canon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Uint appends v as a minimal unsigned varint.
func Uint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// String appends the length of s and its bytes.
func String[S ~string](dst []byte, s S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Float appends the IEEE-754 bits of f in big-endian order.
func Float(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// Bool appends b as one byte, 0 or 1.
func Bool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Reader is a strict cursor over one encoded value.
type Reader struct {
	buf []byte
	off int
	err error
}

// Read returns a Reader positioned at the start of b.
func Read(b []byte) Reader { return Reader{buf: b} }

var (
	errTruncated  = errors.New("truncated input")
	errBadVarint  = errors.New("bad varint")
	errNonMinimal = errors.New("non-minimal varint")
)

// Fail records err as the Reader's failure unless an earlier one already
// stuck. Decoders report their own range findings — an unknown kind byte,
// an enum out of range — through it.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first failure, or an error if bytes remain unread. Call it
// after the last field: only then is an unread byte a trailing one.
func (r *Reader) Err() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.err = errTruncated
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads a minimally-encoded unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = errBadVarint
		return 0
	}
	// Reject non-minimal encodings (e.g. 0x80 0x00 for 0): re-encoding the
	// value must reproduce the same byte count.
	if n > 1 && v < 1<<uint(7*(n-1)) {
		r.err = errNonMinimal
		return 0
	}
	r.off += n
	return v
}

// Uint reads a varint that must fit a non-negative int on every platform.
func (r *Reader) Uint() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail(fmt.Errorf("varint %d out of int range", v))
		return 0
	}
	return int(v)
}

// length reads a collection length and bounds it by the bytes remaining (each
// element needs at least min ≥ 1 bytes), so a hostile input cannot force a
// huge allocation. The bound divides instead of multiplying so it cannot
// overflow on any platform.
func (r *Reader) length(min int) int {
	v := r.Uint()
	if v > (len(r.buf)-r.off)/min {
		r.Fail(fmt.Errorf("length %d exceeds the %d bytes remaining", v, len(r.buf)-r.off))
		return 0
	}
	return v
}

// Slice reads a collection length, each element needing at least min bytes,
// and returns that many zero elements for the caller to fill — nil for an
// empty collection, so decoded values compare equal to the encoded ones.
func Slice[T any](r *Reader, min int) []T {
	n := r.length(min)
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// View reads a length-prefixed string as a view into the input: nothing is
// copied, and the bytes are valid for as long as the input is.
func (r *Reader) View() []byte {
	n := r.length(1)
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.View()) }

// Float reads eight big-endian bytes as IEEE-754 bits.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.err = errTruncated
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail(fmt.Errorf("bad bool byte %d", b))
		return false
	}
	return b == 1
}
