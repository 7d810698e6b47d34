// Package query implements the generic query model of §2 of the paper:
// queries are compositions of selection and projection operations over the
// attributes of a local schema. The package knows how to rewrite a query
// through a schema mapping (hop-by-hop query propagation) and how to compare
// a query with its image after a chain of mappings (the transitive-closure
// comparison that yields cycle feedback in §3.2.1).
package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/schema"
)

// OpKind distinguishes the two generic operation kinds of the paper's query
// model.
type OpKind int

const (
	// Project keeps only the named attribute (π_a).
	Project OpKind = iota
	// Select filters on a predicate over the named attribute (σ_{a LIKE v}).
	Select
)

// String returns "π" or "σ" like the paper's notation.
func (k OpKind) String() string {
	switch k {
	case Project:
		return "π"
	case Select:
		return "σ"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is a single selection or projection operation on one attribute.
// Selections carry a literal; the match semantics (LIKE-style substring)
// are implemented by the storage substrate, not here.
type Op struct {
	Kind    OpKind
	Attr    schema.Attribute
	Literal string // only meaningful for Select
}

// String renders the operation in the paper's π/σ notation.
func (o Op) String() string {
	if o.Kind == Select {
		return fmt.Sprintf("σ[%s LIKE %q]", o.Attr, o.Literal)
	}
	return fmt.Sprintf("π[%s]", o.Attr)
}

// Query is a sequence of operations posed against a schema. Queries are
// immutable values: Rewrite returns a new Query.
type Query struct {
	SchemaName string
	Ops        []Op
}

// New builds a query against the given schema, validating that every
// operation's attribute is declared by the schema.
func New(s *schema.Schema, ops ...Op) (Query, error) {
	for _, op := range ops {
		if !s.Has(op.Attr) {
			return Query{}, fmt.Errorf("query: schema %q has no attribute %q", s.Name(), op.Attr)
		}
	}
	q := Query{SchemaName: s.Name(), Ops: make([]Op, len(ops))}
	copy(q.Ops, ops)
	return q, nil
}

// MustNew is like New but panics on error.
func MustNew(s *schema.Schema, ops ...Op) Query {
	q, err := New(s, ops...)
	if err != nil {
		panic(err)
	}
	return q
}

// Attributes returns the distinct attributes referenced by the query, in
// first-appearance order. These are the attributes whose mapping-correctness
// posteriors gate query forwarding (§2).
func (q Query) Attributes() []schema.Attribute {
	if len(q.Ops) == 0 {
		return nil
	}
	return q.AppendAttributes(make([]schema.Attribute, 0, len(q.Ops)))
}

// AppendAttributes appends the query's distinct attributes to dst in
// first-appearance order, the same list as Attributes, and returns the
// extended slice. A query has a handful of operations, so a duplicate is
// found by scanning what this call already appended; a router that gates
// every edge on them passes a reused buffer and allocates nothing.
func (q Query) AppendAttributes(dst []schema.Attribute) []schema.Attribute {
	start := len(dst)
	for _, op := range q.Ops {
		if !slices.Contains(dst[start:], op.Attr) {
			dst = append(dst, op.Attr)
		}
	}
	return dst
}

// Rewrite translates the query through mapping m, producing the query
// expressed against m's target schema. Operations whose attribute has no
// correspondence under m are dropped and reported in the second return
// value (the ⊥ case of §3.2.1): the caller decides whether a partially
// rewritable query should still be forwarded.
func (q Query) Rewrite(m *schema.Mapping) (Query, []schema.Attribute) {
	ops, whole := q.AppendRewrite(nil, m)
	out := Query{SchemaName: m.Target().Name(), Ops: ops}
	if whole {
		return out, nil
	}
	var dropped []schema.Attribute
	for _, op := range q.Ops {
		if _, ok := rewriteOp(op, m); !ok {
			dropped = append(dropped, op.Attr)
		}
	}
	return out, dropped
}

// AppendRewrite appends the operations of q.Rewrite(m) to dst — every
// operation whose attribute m maps, rewritten, in order — and reports
// whether m maps all of them. It allocates only when dst must grow, so a
// router can carve every hop's rewritten operations out of one arena.
func (q Query) AppendRewrite(dst []Op, m *schema.Mapping) ([]Op, bool) {
	whole := true
	for _, op := range q.Ops {
		r, ok := rewriteOp(op, m)
		if !ok {
			whole = false
			continue
		}
		dst = append(dst, r)
	}
	return dst, whole
}

// rewriteOp is the rewrite rule for one operation: its attribute goes
// through m's correspondence, its kind and literal stay. The second result
// is false when m has no correspondence for the attribute (⊥).
func rewriteOp(op Op, m *schema.Mapping) (Op, bool) {
	dst, ok := m.Map(op.Attr)
	return Op{Kind: op.Kind, Attr: dst, Literal: op.Literal}, ok
}

// RewriteChain rewrites the query through each mapping in turn, mimicking
// hop-by-hop propagation along a cycle or path. It returns the final query
// and the attributes dropped at any hop.
func (q Query) RewriteChain(chain ...*schema.Mapping) (Query, []schema.Attribute) {
	cur := q
	var dropped []schema.Attribute
	for _, m := range chain {
		var d []schema.Attribute
		cur, d = cur.Rewrite(m)
		dropped = append(dropped, d...)
	}
	return cur, dropped
}

// RewritesTo reports whether q.RewriteChain(chain...) drops nothing and
// its result is Equal to want, without building the rewritten query.
func (q Query) RewritesTo(want Query, chain ...*schema.Mapping) bool {
	if len(q.Ops) != len(want.Ops) {
		return false
	}
	for i, op := range q.Ops {
		for _, m := range chain {
			var ok bool
			if op, ok = rewriteOp(op, m); !ok {
				return false
			}
		}
		if op != want.Ops[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two queries are operation-for-operation identical
// (same kinds, attributes and literals, in order). Schema names are ignored:
// the transitive-closure comparison of §3.2.1 compares a query with its
// image after a full cycle, both expressed in the origin schema.
func (q Query) Equal(other Query) bool {
	if len(q.Ops) != len(other.Ops) {
		return false
	}
	for i, op := range q.Ops {
		o := other.Ops[i]
		if op.Kind != o.Kind || op.Attr != o.Attr || op.Literal != o.Literal {
			return false
		}
	}
	return true
}

// String renders the query as "S1: π[a] σ[b LIKE \"x\"]".
func (q Query) String() string {
	parts := make([]string, len(q.Ops))
	for i, op := range q.Ops {
		parts[i] = op.String()
	}
	return q.SchemaName + ": " + strings.Join(parts, " ")
}

// AppendTo appends exactly the String rendering to b and returns the
// extended slice, without any intermediate allocation — the serving plane
// builds its cache keys with this on every lookup, where a String call per
// hit would defeat the cache's zero-allocation hit path.
func (q Query) AppendTo(b []byte) []byte {
	b = append(b, q.SchemaName...)
	b = append(b, ':', ' ')
	for i, op := range q.Ops {
		if i > 0 {
			b = append(b, ' ')
		}
		if op.Kind == Select {
			b = append(b, "σ["...)
			b = append(b, op.Attr...)
			b = append(b, " LIKE "...)
			b = strconv.AppendQuote(b, op.Literal)
			b = append(b, ']')
		} else {
			b = append(b, "π["...)
			b = append(b, op.Attr...)
			b = append(b, ']')
		}
	}
	return b
}
