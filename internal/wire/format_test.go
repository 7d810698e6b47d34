package wire

import (
	"encoding/hex"
	"testing"
)

// TestFrameFormatPinned pins the bytes of every everyKind() frame. The
// round-trip tests and FuzzWireRoundTrip prove only encode∘decode symmetry: a
// field moved in both arms of one kind would pass them and silently change
// the format. A diff here needs a Version bump, not a new literal.
func TestFrameFormatPinned(t *testing.T) {
	want := []string{
		"0101116379636c653a6d317c6d327c6d33406130023fd00000000000003fe8000000000000",
		"0101000000000000000000000000000000000000",
		"01020270310743726561746f7206417574686f72000602036d313201036d323300",
		"0102027039026130026130026d370100",
		"0103020465762d61012a3fe00000000000003fe00000000000000465762d620080808080802001a56e1fc2f8f3593feffffffffffff7",
		"010300",
	}
	msgs := everyKind()
	if len(msgs) != len(want) {
		t.Fatalf("everyKind has %d messages, %d are pinned", len(msgs), len(want))
	}
	for i, m := range msgs {
		if got := hex.EncodeToString(Encode(m)); got != want[i] {
			t.Errorf("%#v: frame bytes changed:\n got %s\nwant %s", m, got, want[i])
		}
	}
}

// Decode costs a Remote its string and the interface box; a heap-allocated
// reader or an error formatted on the happy path would show up here as a third
// allocation. Detection's per-message path, AppendRemote and DecodeRemote,
// allocates nothing.
func TestCodecAllocs(t *testing.T) {
	var m Message = Remote{EvID: "cycle:m1|m2|m3@a0", Pos: 2, Msg: [2]float64{0.25, 0.75}}
	frame := Encode(m)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Decode(Remote) allocates %v times, want ≤ 2", n)
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = Append(buf[:0], m) }); n != 0 {
		t.Errorf("Append into a reused buffer allocates %v times, want 0", n)
	}
	// The in-place path detection runs every round: nothing boxed, nothing
	// copied.
	rm := m.(Remote)
	if n := testing.AllocsPerRun(100, func() { buf = AppendRemote(buf[:0], rm) }); n != 0 {
		t.Errorf("AppendRemote into a reused buffer allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, err := DecodeRemote(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeRemote allocates %v times, want 0", n)
	}
}
