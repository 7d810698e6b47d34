package wal

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schema"
)

// TestRecordFormatPinned pins the on-disk bytes of every record kind, each
// optional list both empty and populated. The round-trip tests and
// FuzzWALDecode prove only encode∘decode symmetry: a field moved in both arms
// of one kind would pass them and silently change the format. A diff here
// needs a Version bump, not a new literal.
func TestRecordFormatPinned(t *testing.T) {
	cfg := &core.DiscoverConfig{Attrs: []schema.Attribute{"a", "bc"}, MaxLen: 4, Delta: 0.125,
		Granularity: core.CoarseGrained, DisableParallelPaths: true}
	bare := &core.DiscoverConfig{MaxLen: 200}
	cases := []struct {
		name string
		mut  core.Mutation
		want string
	}{
		{"init directed", core.Mutation{Kind: core.MutInit, Directed: true}, "0000000501ac0201019167ada9"},
		{"init undirected", core.Mutation{Kind: core.MutInit}, "0000000501ac020100e6609d3f"},
		{"add-peer", core.Mutation{Kind: core.MutAddPeer, Peer: "p1", SchemaName: "s1", Attrs: []schema.Attribute{"a", "bc"}}, "0000001001ac0202027031027331020161026263a4850cee"},
		{"add-peer no attrs", core.Mutation{Kind: core.MutAddPeer, Peer: "p1", SchemaName: "s1"}, "0000000b01ac0202027031027331004fa13f66"},
		{"add-mapping", core.Mutation{Kind: core.MutAddMapping, Edge: "m12", From: "p1", To: "p2",
			Pairs: []core.AttrPair{{From: "a", To: "bc"}, {From: "bc", To: "a"}}}, "0000001901ac0203036d3132027031027032020161026263026263016195142f71"},
		{"add-mapping no pairs", core.Mutation{Kind: core.MutAddMapping, Edge: "m12", From: "p1", To: "p2"}, "0000000f01ac0203036d3132027031027032004d25a987"},
		{"remove-peer", core.Mutation{Kind: core.MutRemovePeer, Peer: "p2"}, "0000000701ac0204027032440b3d70"},
		{"remove-mapping", core.Mutation{Kind: core.MutRemoveMapping, Edge: "m12"}, "0000000801ac0205036d3132f09be939"},
		{"set-prior", core.Mutation{Kind: core.MutSetPrior, Peer: "p1", Edge: "m12", Attr: "a", Prior: 0.75}, "0000001501ac0206027031036d313201613fe80000000000007a67c87f"},
		{"discover", core.Mutation{Kind: core.MutDiscover, Cfg: cfg}, "0000001501ac0207020161026263043fc00000000000000101471945f9"},
		{"discover bare", core.Mutation{Kind: core.MutDiscover, Cfg: bare}, "0000001101ac020700c80100000000000000000000f8c415c0"},
		{"discover-inc", core.Mutation{Kind: core.MutDiscoverInc, Cfg: cfg, Changed: []graph.EdgeID{"m12", "m23"}}, "0000001e01ac0208020161026263043fc0000000000000010102036d3132036d323313a82177"},
		{"discover-inc none changed", core.Mutation{Kind: core.MutDiscoverInc, Cfg: bare}, "0000001201ac020800c80100000000000000000000001d162ab5"},
		{"feedback", core.Mutation{Kind: core.MutFeedback,
			FbOpts: &core.FeedbackOptions{Delta: 0.25, Noise: 0.0625, NoTrust: true},
			Groups: []core.FeedbackGroup{
				{Attr: "a", Chain: []graph.EdgeID{"m12", "m23"}, Pos: 3, Neg: 1, Reporter: "p3"},
				{Attr: "bc", Pos: 0, Neg: 130},
			}}, "0000002e01ac02093fd00000000000003fb00000000000000102016102036d3132036d323303010270330262630000820100ef442a99"},
		{"feedback no groups", core.Mutation{Kind: core.MutFeedback, FbOpts: &core.FeedbackOptions{Delta: 0.5}}, "0000001601ac02093fe000000000000000000000000000000000750f5761"},
		{"prior-samples", core.Mutation{Kind: core.MutPriorSamples, Samples: []core.PriorSample{
			{Peer: "p1", Mapping: "m12", Attr: "a", Sample: 0.5},
			{Peer: "p2", Mapping: "m23", Attr: "bc", Sample: 0.25}}}, "0000002801ac020a02027031036d313201613fe0000000000000027032036d32330262633fd000000000000072ff49cb"},
		{"prior-samples empty", core.Mutation{Kind: core.MutPriorSamples}, "0000000501ac020a00059444f4"},
		{"checkpoint", core.Mutation{Kind: core.MutCheckpoint, Checkpoint: &core.CheckpointInfo{
			LastSeq: 1 << 20, Peers: 3, Mappings: 4, Replicas: 500, Vars: 6, Pins: 1, Digest: "abc"}}, "0000001101ac020b8080400304f4030601036162639c09b16a"},
		{"mark", core.Mutation{Kind: core.MutMark}, "0000000401ac020c721a32d4"},
	}
	kinds := make(map[core.MutKind]bool)
	for _, c := range cases {
		kinds[c.mut.Kind] = true
		if got := hex.EncodeToString(appendRecord(nil, 300, c.mut)); got != c.want { // seq: a two-byte varint
			t.Errorf("%s: record bytes changed:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
	for k := core.MutInit; k <= core.MutMark; k++ {
		if !kinds[k] {
			t.Errorf("no pinned record for kind %s", k)
		}
	}
}

// A set-prior record decodes in two allocations, the peer and edge strings
// (a one-byte attribute is static); the reader must stay on the stack.
func TestDecodePayloadAllocs(t *testing.T) {
	p := appendPayload(nil, 300, core.Mutation{Kind: core.MutSetPrior, Peer: "p1", Edge: "m12", Attr: "a", Prior: 0.75})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodePayload(p); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("decodePayload(set-prior) allocates %v times, want ≤ 2", n)
	}
}
