package query

import (
	"slices"
	"testing"

	"repro/internal/schema"
)

// TestRewriteFormsAgree holds the allocation-free forms to the ones they
// stand in for: AppendRewrite to Rewrite, RewritesTo to RewriteChain plus
// Equal, AppendAttributes to Attributes — one named case per row.
func TestRewriteFormsAgree(t *testing.T) {
	s1, s2, m12 := artSchemas()
	m21 := schema.MustNewMapping("m21", s2, s1).
		MustAdd("DisplayName", "Creator").
		MustAdd("GUID", "GUID")
	swap := schema.MustNewMapping("swap", s2, s1).
		MustAdd("DisplayName", "Subject").
		MustAdd("GUID", "GUID")
	proj := func(a schema.Attribute) Op { return Op{Kind: Project, Attr: a} }
	sel := func(a schema.Attribute, lit string) Op { return Op{Kind: Select, Attr: a, Literal: lit} }

	cases := []struct {
		name  string
		q     Query
		chain []*schema.Mapping
		want  Query
		ok    bool
	}{
		{"empty chain is the identity", MustNew(s1, proj("Creator")), nil, MustNew(s1, proj("Creator")), true},
		{"one hop", MustNew(s1, proj("Creator"), sel("GUID", "x")), []*schema.Mapping{m12},
			MustNew(s2, proj("DisplayName"), sel("GUID", "x")), true},
		{"round trip", MustNew(s1, sel("Creator", "Ann"), proj("GUID")), []*schema.Mapping{m12, m21},
			MustNew(s1, sel("Creator", "Ann"), proj("GUID")), true},
		{"faulty cycle", MustNew(s1, sel("Creator", "Ann")), []*schema.Mapping{m12, swap},
			MustNew(s1, sel("Creator", "Ann")), false},
		{"dropped op", MustNew(s1, proj("Creator"), proj("Subject")), []*schema.Mapping{m12},
			MustNew(s2, proj("DisplayName")), false},
		{"literal differs", MustNew(s1, sel("Creator", "Ann")), []*schema.Mapping{m12},
			MustNew(s2, sel("DisplayName", "ann")), false},
		{"kind differs", MustNew(s1, sel("Creator", "Ann")), []*schema.Mapping{m12},
			MustNew(s2, proj("DisplayName")), false},
		{"duplicate attributes", MustNew(s1, proj("GUID"), sel("Creator", "a"), sel("GUID", "b")), []*schema.Mapping{m12},
			MustNew(s2, proj("GUID"), sel("DisplayName", "a"), sel("GUID", "b")), true},
		{"no ops", MustNew(s1), []*schema.Mapping{m12}, MustNew(s2), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, dropped := tc.q.RewriteChain(tc.chain...)
			if ref := len(dropped) == 0 && got.Equal(tc.want); ref != tc.ok {
				t.Fatalf("RewriteChain+Equal = %v, the case expects %v", ref, tc.ok)
			}
			if ok := tc.q.RewritesTo(tc.want, tc.chain...); ok != tc.ok {
				t.Errorf("RewritesTo = %v, want %v", ok, tc.ok)
			}
			if len(tc.chain) > 0 {
				m := tc.chain[0]
				rw, d := tc.q.Rewrite(m)
				prefix := []Op{proj("keep")}
				ops, whole := tc.q.AppendRewrite(slices.Clone(prefix), m)
				if !slices.Equal(ops[:1], prefix) || !slices.Equal(ops[1:], rw.Ops) || whole != (len(d) == 0) {
					t.Errorf("AppendRewrite = %v, %v; Rewrite gives %v dropping %v", ops, whole, rw.Ops, d)
				}
			}
			attrs := tc.q.AppendAttributes([]schema.Attribute{"GUID"})
			if want := tc.q.Attributes(); attrs[0] != "GUID" || !slices.Equal(attrs[1:], want) {
				t.Errorf("AppendAttributes after a prefix = %v, Attributes = %v", attrs, want)
			}
		})
	}
}

// TestRewritesToZeroAlloc pins the serve layer's per-visit chain check and
// the router's per-hop rewrite at zero allocations.
func TestRewritesToZeroAlloc(t *testing.T) {
	s1, s2, m12 := artSchemas()
	m21 := schema.MustNewMapping("m21", s2, s1).
		MustAdd("DisplayName", "Creator").
		MustAdd("GUID", "GUID")
	q := MustNew(s1, Op{Kind: Select, Attr: "Creator", Literal: "Ann"}, Op{Kind: Project, Attr: "GUID"})
	chain := []*schema.Mapping{m12, m21}
	buf := make([]Op, 0, 4)
	abuf := make([]schema.Attribute, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		if !q.RewritesTo(q, chain...) {
			t.Fatal("round trip does not rewrite to itself")
		}
		if _, whole := q.AppendRewrite(buf[:0], m12); !whole {
			t.Fatal("m12 drops an op")
		}
		abuf = q.AppendAttributes(abuf[:0])
	})
	if allocs != 0 {
		t.Errorf("RewritesTo, AppendRewrite and AppendAttributes allocate %.1f times, want 0", allocs)
	}
}
