package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzWireRoundTrip pins the canonical-encoding property: any byte string
// Decode accepts must re-encode to exactly the same bytes (and any frame we
// emit must decode back to itself — covered by seeding the corpus with an
// encoding of every message kind). It also pins DecodeRemote/AppendRemote to
// Decode/Append on every input. CI runs this for 30 seconds as a smoke
// step; run it longer locally with:
//
//	go test ./internal/wire -fuzz FuzzWireRoundTrip -fuzztime 5m
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range everyKind() {
		f.Add(Encode(m))
	}
	// A few deliberately broken frames so the fuzzer starts from the error
	// paths too.
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, byte(KindRemote), 0x80, 0x00})
	// The retired kinds 3, 4 and 5 must stay unknown; the two kind-3 frames
	// are what the retired Piggyback encoder emitted for a batch of two
	// entries and for an empty batch.
	f.Add(mustHex("0103020465762d61012a3fe00000000000003fe00000000000000465762d620080808080802001a56e1fc2f8f3593feffffffffffff7"))
	f.Add(mustHex("010300"))
	f.Add([]byte{Version, 4})
	f.Add([]byte{Version, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		// The in-place path accepts exactly the Remote frames Decode accepts,
		// with the same fields, and re-encodes them to the same bytes.
		evID, pos, msg, rerr := DecodeRemote(data)
		rm, isRemote := m.(Remote)
		if (rerr == nil) != isRemote {
			t.Fatalf("DecodeRemote err %v, Decode returned %#v (err %v)", rerr, m, err)
		}
		if isRemote {
			if string(evID) != rm.EvID || pos != rm.Pos ||
				math.Float64bits(msg[0]) != math.Float64bits(rm.Msg[0]) ||
				math.Float64bits(msg[1]) != math.Float64bits(rm.Msg[1]) {
				t.Fatalf("DecodeRemote = %q %d %v, Decode = %#v", evID, pos, msg, rm)
			}
			if !bytes.Equal(AppendRemote(nil, rm), Append(nil, rm)) {
				t.Fatalf("AppendRemote and Append disagree on %#v", rm)
			}
		}
		if err != nil {
			return // malformed input: rejecting is the correct outcome
		}
		re := Encode(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode→encode not byte-identical:\n in: %x\nout: %x\nmsg: %#v", data, re, m)
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame no longer decodes: %v", err)
		}
		if !bytes.Equal(Encode(back), re) {
			t.Fatalf("second round trip diverged")
		}
	})
}
