package canon

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// sample holds one value of every field type; write and read mirror each other.
type sample struct {
	N    int
	S    string
	F    float64
	B    bool
	List []string
}

func (v sample) write(dst []byte) []byte {
	dst = Uint(dst, uint64(v.N))
	dst = String(dst, v.S)
	dst = Float(dst, v.F)
	dst = Bool(dst, v.B)
	dst = Uint(dst, uint64(len(v.List)))
	for _, s := range v.List {
		dst = String(dst, s)
	}
	return dst
}

func read(r *Reader) (v sample) {
	v.N, v.S, v.F, v.B = r.Uint(), r.Str(), r.Float(), r.Bool()
	v.List = Slice[string](r, 1)
	for i := range v.List {
		v.List[i] = r.Str()
	}
	return v
}

var full = sample{N: 300, S: "abc", F: -0.5, B: true, List: []string{"x", ""}}

// The encoding is pinned, round-trips (an empty list to nil), and every
// proper prefix of it is an error, never a shorter value.
func TestRoundTripAndTruncation(t *testing.T) {
	enc := full.write(nil)
	if want := []byte{0xac, 0x02, 3, 'a', 'b', 'c', 0xbf, 0xe0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 'x', 0}; !bytes.Equal(enc, want) {
		t.Fatalf("encoding changed:\n got %x\nwant %x", enc, want)
	}
	for _, v := range []sample{full, {}} {
		r := Read(v.write(nil))
		if got := read(&r); r.Err() != nil || !reflect.DeepEqual(got, v) {
			t.Errorf("round trip of %+v gave %+v, err %v", v, got, r.Err())
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		r := Read(enc[:cut])
		if read(&r); r.Err() == nil {
			t.Errorf("cut=%d: truncated input %x accepted", cut, enc[:cut])
		}
	}
}

func TestRejectsNonCanonicalFields(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"non-minimal varint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"non-minimal length", []byte{0x81, 0x00, 'a'}, func(r *Reader) { r.Str() }},
		{"unterminated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{"varint overflows uint64", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		{"varint above MaxInt32", Uint(nil, math.MaxInt32+1), func(r *Reader) { r.Uint() }},
		{"string longer than input", []byte{4, 'a', 'b', 'c'}, func(r *Reader) { r.Str() }},
		{"count above remaining/min", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { Slice[int](r, 2) }},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"short float", make([]byte, 7), func(r *Reader) { r.Float() }},
		{"trailing bytes", []byte{1, 0}, func(r *Reader) { r.Bool() }},
	} {
		r := Read(c.in)
		if c.read(&r); r.Err() == nil {
			t.Errorf("%s: %x accepted", c.name, c.in)
		}
	}
	// The bounds are inclusive: MaxInt32 and a count of remaining/min pass.
	r := Read(append(Uint(nil, math.MaxInt32), 2, 0, 0, 0, 0))
	if n, list := r.Uint(), Slice[int](&r, 2); n != math.MaxInt32 || len(list) != 2 {
		t.Errorf("Uint = %d, Slice of %d; want MaxInt32 and 2", n, len(list))
	}
}

// The first failure sticks: later reads return zero values and consume
// nothing, so Err stays that failure, and Fail cannot overwrite it.
func TestFirstFailureSticks(t *testing.T) {
	r := Read(append([]byte{2}, full.write(nil)...))
	r.Bool()
	first := r.Err()
	if first == nil {
		t.Fatal("bool byte 2 accepted")
	}
	if got := read(&r); !reflect.DeepEqual(got, sample{}) || r.Byte() != 0 || r.Uvarint() != 0 {
		t.Errorf("reads after a failure returned %+v, want zero values", got)
	}
	r.Fail(errors.New("later finding"))
	if err := r.Err(); err != first {
		t.Errorf("Err = %v, want the first failure %v", err, first)
	}

	r = Read([]byte{1})
	if r.Fail(first); r.Bool() || r.Err() != first {
		t.Errorf("after Fail: Err = %v, want %v and no further reads", r.Err(), first)
	}
}
