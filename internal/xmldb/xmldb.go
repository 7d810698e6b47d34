// Package xmldb is a minimal XML document store, the storage substrate
// standing in for the XQuery databases of the paper's running example
// (Figures 1 and 2). Each peer database stores a collection of documents
// structured according to the peer's schema; queries are the select/project
// operations of package query, with LIKE-style substring selection semantics
// as in the paper's "WHERE $p/Creator LIKE \"%Robi%\"".
//
// Documents can be inserted as parsed records or as XML text: elements whose
// local name matches a schema attribute contribute their character data as
// values for that attribute (a deliberate simplification of XPath documented
// in DESIGN.md — the inference layer of the paper only needs attribute-level
// correspondences).
//
// A Store keeps its records column by column, not as one map per record:
// each schema attribute, by its ordinal, owns one contiguous slice holding
// every record's values in record order, an offset per record into it, a
// presence bit per record (a record may carry an attribute with no values)
// and, only where strings.ToLower changes a value, the lowered copy that
// selection compares against. Execute resolves each operation's column and
// lowers each literal once per call, scans the columns, and materialises the
// matching rows as fresh Records — the map form queries return, which is
// what the serving plane merges and digests.
package xmldb

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/schema"
)

// Record is one document flattened to attribute → values. Attributes may be
// multi-valued (repeated XML elements).
type Record map[schema.Attribute][]string

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// CanonicalString renders the record in its canonical form — attributes
// sorted, values in stored order — the stable representation the serving
// plane's result mergers, digests and golden traces compare records by.
// Attribute names and values are quoted, so the rendering is injective:
// two records are answer-equal iff their canonical strings are equal, even
// when values contain the delimiter characters.
//
//pdms:deterministic
func (r Record) CanonicalString() string {
	return string(r.AppendCanonical(make([]byte, 0, 64)))
}

// AppendCanonical appends exactly the CanonicalString rendering to b and
// returns the extended slice: the serving plane renders a whole merged
// result set into one buffer with it. The rendering holds no byte below
// 0x20 (strconv quoting escapes every control character), so a '\n' after
// it never reorders two renderings that are compared bytewise.
//
//pdms:deterministic
func (r Record) AppendCanonical(b []byte) []byte {
	var buf [8]schema.Attribute
	attrs := buf[:0]
	for a := range r {
		attrs = append(attrs, a)
	}
	slices.Sort(attrs)
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendQuote(b, string(a))
		b = append(b, '=')
		for j, v := range r[a] {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, v)
		}
	}
	return b
}

// Store is a collection of records conforming to a schema, kept column by
// column: one column per schema attribute, in declaration order.
type Store struct {
	schema *schema.Schema
	attrs  []schema.Attribute // the schema's attributes, by ordinal
	cols   []column           // cols[i] holds attrs[i]
	n      int                // records
}

// column holds one attribute's values for every record of a store, in one
// contiguous slice: record i's values are vals[off[i]:off[i+1]], in stored
// order. present marks the records that carry the attribute at all — a
// record may carry it with no values, and a result keeps it. lower[j] is
// strings.ToLower(vals[j]) where that differs from vals[j] and "" where it
// does not (ToLower never maps a non-empty string to ""); lower stays nil
// until the column holds a value that lowercasing changes, so an all-lower
// column stores no second copy.
type column struct {
	off     []uint32
	present []uint64 // bitset over records
	vals    []string
	lower   []string
}

func (c *column) has(i int) bool { return c.present[i>>6]&(1<<(i&63)) != 0 }

// values returns record i's values, shared with the store.
func (c *column) values(i int) []string { return c.vals[c.off[i]:c.off[i+1]] }

// push appends the values of the next record; ok is whether it carries the
// attribute.
func (c *column) push(i int, vs []string, ok bool) {
	if i>>6 >= len(c.present) {
		c.present = append(c.present, 0)
	}
	if ok {
		c.present[i>>6] |= 1 << (i & 63)
	}
	for _, v := range vs {
		lv := strings.ToLower(v)
		if lv != v && c.lower == nil {
			c.lower = make([]string, len(c.vals), cap(c.vals))
		}
		if c.lower != nil {
			if lv == v {
				lv = ""
			}
			c.lower = append(c.lower, lv)
		}
		c.vals = append(c.vals, v)
	}
	c.off = append(c.off, uint32(len(c.vals)))
}

// contains reports whether some value of record i contains needle, which is
// already lowercased: LIKE "%lit%" compared case-insensitively.
func (c *column) contains(i int, needle string) bool {
	for j := c.off[i]; j < c.off[i+1]; j++ {
		v := c.vals[j]
		if c.lower != nil && c.lower[j] != "" {
			v = c.lower[j]
		}
		if strings.Contains(v, needle) {
			return true
		}
	}
	return false
}

// NewStore creates an empty store for the given schema.
func NewStore(s *schema.Schema) (*Store, error) {
	if s == nil {
		return nil, fmt.Errorf("xmldb: nil schema")
	}
	st := &Store{schema: s, attrs: s.Attributes(), cols: make([]column, s.Len())}
	for i := range st.cols {
		st.cols[i].off = []uint32{0}
	}
	return st, nil
}

// Schema returns the store's schema.
func (st *Store) Schema() *schema.Schema { return st.schema }

// Len returns the number of records.
func (st *Store) Len() int { return st.n }

// Insert adds a record after validating that every attribute belongs to the
// store's schema. The store keeps its own copy of the values.
func (st *Store) Insert(r Record) error {
	for a := range r {
		if !st.schema.Has(a) {
			return fmt.Errorf("xmldb: schema %q has no attribute %q", st.schema.Name(), a)
		}
	}
	st.add(r)
	return nil
}

// add spreads a validated record over the columns.
func (st *Store) add(r Record) {
	for i, a := range st.attrs {
		vs, ok := r[a]
		st.cols[i].push(st.n, vs, ok)
	}
	st.n++
}

// InsertXML parses an XML document and inserts the record formed by the
// character data of every element whose local name is a schema attribute.
// Elements not named after schema attributes contribute structure only.
func (st *Store) InsertXML(doc string) error {
	rec, err := ParseRecord(st.schema, doc)
	if err != nil {
		return err
	}
	st.add(rec)
	return nil
}

// ParseRecord flattens an XML document against a schema: for every element
// whose local name matches a schema attribute, the element's trimmed
// character data (direct text, not descendants') is appended to that
// attribute's values.
func ParseRecord(s *schema.Schema, doc string) (Record, error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	rec := make(Record)
	var stack []string
	var textStack [][]byte
	for {
		tok, err := dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("xmldb: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			stack = append(stack, t.Name.Local)
			textStack = append(textStack, nil)
		case xml.CharData:
			if len(textStack) > 0 {
				textStack[len(textStack)-1] = append(textStack[len(textStack)-1], t...)
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldb: parse: unbalanced end element %q", t.Name.Local)
			}
			name := stack[len(stack)-1]
			text := strings.TrimSpace(string(textStack[len(textStack)-1]))
			stack = stack[:len(stack)-1]
			textStack = textStack[:len(textStack)-1]
			if a := schema.Attribute(name); s.Has(a) && text != "" {
				rec[a] = append(rec[a], text)
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmldb: parse: unclosed element %q", stack[len(stack)-1])
	}
	return rec, nil
}

// Execute evaluates a query against the store: records must satisfy every
// Select operation (some value of the attribute contains the literal,
// case-insensitively — LIKE "%lit%"); the result contains the Project
// attributes only, or the full record if the query has no projections.
// The query must be expressed against the store's schema. Each operation's
// column and each lowered literal are resolved once per call; results are
// fresh records in store order.
func (st *Store) Execute(q query.Query) ([]Record, error) {
	if q.SchemaName != st.schema.Name() {
		return nil, fmt.Errorf("xmldb: query against schema %q, store has %q", q.SchemaName, st.schema.Name())
	}
	type selection struct {
		col    *column
		needle string
	}
	var selBuf [4]selection
	var colBuf [8]int
	sels, cols := selBuf[:0], colBuf[:0]
	for _, op := range q.Ops {
		c, ok := st.schema.Index(op.Attr)
		if !ok {
			return nil, fmt.Errorf("xmldb: schema %q has no attribute %q", st.schema.Name(), op.Attr)
		}
		switch op.Kind {
		case query.Project:
			cols = append(cols, c)
		case query.Select:
			sels = append(sels, selection{&st.cols[c], strings.ToLower(op.Literal)})
		}
	}
	if len(cols) == 0 { // no projection: whole records
		for c := range st.cols {
			cols = append(cols, c)
		}
	}
	// Pass 1 finds the matching rows and counts their values; pass 2
	// materialises them over one backing array.
	var rowBuf [64]int
	rows, total := rowBuf[:0], 0
next:
	for i := 0; i < st.n; i++ {
		for _, s := range sels {
			if !s.col.contains(i, s.needle) {
				continue next
			}
		}
		rows = append(rows, i)
		for _, c := range cols {
			total += len(st.cols[c].values(i))
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out := make([]Record, len(rows))
	backing := make([]string, 0, total)
	for k, i := range rows {
		out[k], backing = st.record(i, cols, backing)
	}
	return out, nil
}

// record materialises row i over the given columns: the attributes among
// them that the row carries. The values are appended to backing, which the
// caller sized for the whole result, and each attribute's slice is capped
// so that appending to it copies; a carried attribute with no values maps to
// nil, as Record.Clone leaves it.
func (st *Store) record(i int, cols []int, backing []string) (Record, []string) {
	keys := 0
	for _, c := range cols {
		if st.cols[c].has(i) {
			keys++
		}
	}
	rec := make(Record, keys)
	for _, c := range cols {
		col := &st.cols[c]
		if !col.has(i) {
			continue
		}
		vs := col.values(i)
		if len(vs) == 0 {
			rec[st.attrs[c]] = nil
			continue
		}
		start := len(backing)
		backing = append(backing, vs...)
		rec[st.attrs[c]] = backing[start:len(backing):len(backing)]
	}
	return rec, backing
}

// Verdict is a consumer's judgment of a served result set — the observation
// the serving plane's feedback loop classifies into probabilistic evidence
// about the mapping chains the answer traversed (serve.Server.Feedback).
type Verdict int

const (
	// VerdictConfirm: the records were semantically what the query asked
	// for (positive feedback on the traversed mappings).
	VerdictConfirm Verdict = iota
	// VerdictContradict: the records were wrong — values of some other
	// concept (negative feedback: at least one traversed mapping is
	// incorrect).
	VerdictContradict
	// VerdictLost: an expected result never arrived. Like the ⊥ case of
	// structural feedback this carries no counting factor — unlike a ⊥ it
	// does not identify the mapping that lost the result.
	VerdictLost
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictConfirm:
		return "confirm"
	case VerdictContradict:
		return "contradict"
	case VerdictLost:
		return "lost"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Judge derives a verdict by comparing served records against a reference
// set (both compared as canonical record sets): any spurious record
// contradicts, otherwise any missing record means the result was lost,
// otherwise the answer is confirmed. It is the record-level oracle tests and
// ground-truth feedback policies build on.
func Judge(got, want []Record) Verdict {
	wantSet := make(map[string]bool, len(want))
	for _, r := range want {
		wantSet[r.CanonicalString()] = true
	}
	gotSet := make(map[string]bool, len(got))
	for _, r := range got {
		key := r.CanonicalString()
		gotSet[key] = true
		if !wantSet[key] {
			return VerdictContradict
		}
	}
	for key := range wantSet {
		if !gotSet[key] {
			return VerdictLost
		}
	}
	return VerdictConfirm
}

// Values collects the distinct values of attribute a across a result set,
// sorted — convenient for asserting query answers in examples and tests.
func Values(records []Record, a schema.Attribute) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range records {
		for _, v := range r[a] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}
