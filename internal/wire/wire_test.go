package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// everyKind returns one representative message per frame kind, exercising
// empty and non-empty variants of every field.
func everyKind() []Message {
	return []Message{
		Remote{EvID: "cycle:m1|m2|m3@a0", Pos: 2, Msg: [2]float64{0.25, 0.75}},
		Remote{EvID: "", Pos: 0, Msg: [2]float64{0, 0}},
		Probe{Origin: "p1", Attr: "Creator", Image: "Author", TTL: 6, Steps: []graph.Step{
			{Edge: "m12", Forward: true},
			{Edge: "m23", Forward: false},
		}},
		Probe{Origin: "p9", Attr: "a0", Image: "a0", Lost: "m7", TTL: 1},
		Piggyback{Entries: []PiggybackEntry{
			{EvID: "ev-a", Pos: 1, Seq: 42, Msg: [2]float64{0.5, 0.5}},
			{EvID: "ev-b", Pos: 0, Seq: 1 << 40, Msg: [2]float64{1e-300, 1 - 1e-15}},
		}},
		Piggyback{},
	}
}

func TestRoundTripEveryKind(t *testing.T) {
	for _, m := range everyKind() {
		enc := Encode(m)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip changed the message:\n in: %#v\nout: %#v", m, got)
		}
		re := Encode(got)
		if !bytes.Equal(re, enc) {
			t.Errorf("%v: re-encode differs: %x vs %x", m, re, enc)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	for _, m := range everyKind() {
		if !bytes.Equal(Encode(m), Encode(m)) {
			t.Errorf("%v: encoding not deterministic", m)
		}
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	good := Encode(Remote{EvID: "e", Pos: 1, Msg: [2]float64{0.5, 0.5}})
	cases := map[string][]byte{
		"empty":              nil,
		"version only":       {Version},
		"unknown version":    append([]byte{99}, good[1:]...),
		"unknown kind":       {Version, 200},
		"truncated remote":   good[:len(good)-1],
		"trailing bytes":     append(append([]byte(nil), good...), 0),
		"retired kind 4":     {Version, 4},
		"retired kind 5":     {Version, 5},
		"non-minimal varint": {Version, byte(KindRemote), 0x80, 0x00},
		"huge steps length":  {Version, byte(KindProbe), 1, 'p', 1, 'a', 1, 'a', 0, 3, 0xff, 0xff, 0xff, 0x7f},
		"bad bool":           {Version, byte(KindProbe), 0, 0, 0, 0, 1, 1, 1, 'e', 2},
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted %x", name, b)
		}
	}
}

func TestFloatBitsPreserved(t *testing.T) {
	m := Remote{EvID: "e", Msg: [2]float64{math.Inf(1), math.Copysign(0, -1)}}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	out := got.(Remote).Msg
	if !math.IsInf(out[0], 1) || math.Signbit(out[1]) != true {
		t.Errorf("float bits not preserved: %v", out)
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	one := Append(buf, Piggyback{})
	if &one[0] != &buf[:1][0] {
		t.Error("Append did not reuse the provided buffer")
	}
}
