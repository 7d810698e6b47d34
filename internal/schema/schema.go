// Package schema models database schemas and pairwise schema mappings, the
// basic vocabulary of a Peer Data Management System (PDMS).
//
// Following §2 of the paper, a schema is an identified collection of
// attributes (relational attributes, XML elements, RDF properties — the data
// model is abstracted away), and a mapping is a partial function from the
// attributes of a source schema to the attributes of a target schema.
// Mappings may be erroneous: they may relate an attribute to a semantically
// irrelevant attribute of the target. Detecting such errors is the purpose
// of the rest of the library; this package only provides the mechanics of
// declaring, composing and following mappings.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Attribute names a concept a database stores information about: a column,
// an XML element or attribute, an RDF class or property.
type Attribute string

// Schema is a named set of attributes. The zero value is unusable; create
// schemas with New.
type Schema struct {
	name  string
	attrs []Attribute
	index map[Attribute]int
}

// New creates a schema with the given name and attributes. Attribute order
// is preserved. It returns an error if the name is empty, an attribute is
// empty, or an attribute is duplicated.
func New(name string, attrs ...Attribute) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty schema name")
	}
	s := &Schema{
		name:  name,
		attrs: make([]Attribute, 0, len(attrs)),
		index: make(map[Attribute]int, len(attrs)),
	}
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("schema %q: empty attribute name", name)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("schema %q: duplicate attribute %q", name, a)
		}
		s.index[a] = len(s.attrs)
		s.attrs = append(s.attrs, a)
	}
	return s, nil
}

// MustNew is like New but panics on error. It is intended for tests and
// static example topologies.
func MustNew(name string, attrs ...Attribute) *Schema {
	s, err := New(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the schema name.
func (s *Schema) Name() string { return s.name }

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Has reports whether the schema declares attribute a.
func (s *Schema) Has(a Attribute) bool {
	_, ok := s.index[a]
	return ok
}

// Index returns the ordinal of attribute a in declaration order, and false
// when the schema does not declare it.
func (s *Schema) Index(a Attribute) (int, bool) {
	i, ok := s.index[a]
	return i, ok
}

// Attributes returns the schema's attributes in declaration order. The
// returned slice is a copy.
func (s *Schema) Attributes() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// String returns a compact human-readable rendering of the schema.
func (s *Schema) String() string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = string(a)
	}
	return s.name + "{" + strings.Join(names, ", ") + "}"
}

// Mapping is a directed pairwise schema mapping: a partial function from the
// attributes of Source to the attributes of Target. A mapping is identified
// by a network-unique ID (e.g. "m12"), which the inference layer uses to name
// the binary correctness variable associated with the mapping.
type Mapping struct {
	id     string
	source *Schema
	target *Schema
	pairs  map[Attribute]Attribute
}

// NewMapping creates an empty mapping from source to target.
func NewMapping(id string, source, target *Schema) (*Mapping, error) {
	if id == "" {
		return nil, fmt.Errorf("schema: empty mapping id")
	}
	if source == nil || target == nil {
		return nil, fmt.Errorf("schema: mapping %q: nil source or target schema", id)
	}
	return &Mapping{
		id:     id,
		source: source,
		target: target,
		pairs:  make(map[Attribute]Attribute),
	}, nil
}

// MustNewMapping is like NewMapping but panics on error.
func MustNewMapping(id string, source, target *Schema) *Mapping {
	m, err := NewMapping(id, source, target)
	if err != nil {
		panic(err)
	}
	return m
}

// ID returns the mapping identifier.
func (m *Mapping) ID() string { return m.id }

// Source returns the source schema.
func (m *Mapping) Source() *Schema { return m.source }

// Target returns the target schema.
func (m *Mapping) Target() *Schema { return m.target }

// Add declares that source attribute src corresponds to target attribute
// dst. Both attributes must belong to their respective schemas; src must not
// already be mapped. Note that nothing prevents the correspondence from
// being semantically wrong — that is precisely what the inference layer
// detects.
func (m *Mapping) Add(src, dst Attribute) error {
	if !m.source.Has(src) {
		return fmt.Errorf("schema: mapping %q: source schema %q has no attribute %q", m.id, m.source.Name(), src)
	}
	if !m.target.Has(dst) {
		return fmt.Errorf("schema: mapping %q: target schema %q has no attribute %q", m.id, m.target.Name(), dst)
	}
	if prev, dup := m.pairs[src]; dup {
		return fmt.Errorf("schema: mapping %q: attribute %q already mapped to %q", m.id, src, prev)
	}
	m.pairs[src] = dst
	return nil
}

// MustAdd is like Add but panics on error.
func (m *Mapping) MustAdd(src, dst Attribute) *Mapping {
	if err := m.Add(src, dst); err != nil {
		panic(err)
	}
	return m
}

// Map returns the image of src under the mapping, and whether the mapping
// provides a correspondence for src at all. A missing correspondence is the
// ⊥ case of §3.2.1.
func (m *Mapping) Map(src Attribute) (Attribute, bool) {
	dst, ok := m.pairs[src]
	return dst, ok
}

// Mapped returns the source attributes for which a correspondence exists,
// in sorted order.
func (m *Mapping) Mapped() []Attribute {
	out := make([]Attribute, 0, len(m.pairs))
	for a := range m.pairs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of attribute correspondences.
func (m *Mapping) Len() int { return len(m.pairs) }

// Compose returns the composite mapping "m then next": a mapping from
// m.Source() to next.Target() defined wherever both legs are defined. Its ID
// is "m.id∘next.id". Compose fails if next's source schema differs from m's
// target schema.
func (m *Mapping) Compose(next *Mapping) (*Mapping, error) {
	if next == nil {
		return nil, fmt.Errorf("schema: compose %q with nil mapping", m.id)
	}
	if next.source != m.target {
		return nil, fmt.Errorf("schema: cannot compose %q (target %q) with %q (source %q)",
			m.id, m.target.Name(), next.id, next.source.Name())
	}
	out, err := NewMapping(m.id+"∘"+next.id, m.source, next.target)
	if err != nil {
		return nil, err
	}
	for src, mid := range m.pairs {
		if dst, ok := next.pairs[mid]; ok {
			out.pairs[src] = dst
		}
	}
	return out, nil
}

// Inverse returns the inverse mapping, defined only when the mapping is
// injective on its mapped attributes (two source attributes mapped to the
// same target attribute cannot be inverted unambiguously).
func (m *Mapping) Inverse() (*Mapping, error) {
	inv, err := NewMapping(m.id+"⁻¹", m.target, m.source)
	if err != nil {
		return nil, err
	}
	for src, dst := range m.pairs {
		if prev, dup := inv.pairs[dst]; dup {
			return nil, fmt.Errorf("schema: mapping %q not invertible: %q and %q both map to %q",
				m.id, prev, src, dst)
		}
		inv.pairs[dst] = src
	}
	return inv, nil
}

// Follow traces attribute a through the chain of mappings, returning the
// final attribute and true, or "" and false as soon as some mapping in the
// chain provides no correspondence (the ⊥ case). Follow does not require
// the chain to be schema-compatible end to end; it simply applies each
// mapping's correspondence table in turn, which mirrors how a query operation
// is rewritten hop by hop in the PDMS.
func Follow(a Attribute, chain ...*Mapping) (Attribute, bool) {
	cur := a
	for _, m := range chain {
		next, ok := m.Map(cur)
		if !ok {
			return "", false
		}
		cur = next
	}
	return cur, true
}

// Identity creates the identity mapping on s, useful in tests and as the
// neutral element of composition.
func Identity(id string, s *Schema) *Mapping {
	m := MustNewMapping(id, s, s)
	for _, a := range s.Attributes() {
		m.pairs[a] = a
	}
	return m
}

// String returns a compact rendering such as "m12: S1 -> S2 (3 attrs)".
func (m *Mapping) String() string {
	return fmt.Sprintf("%s: %s -> %s (%d attrs)", m.id, m.source.Name(), m.target.Name(), len(m.pairs))
}
