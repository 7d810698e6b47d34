package xmldb

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/schema"
)

// refStore is the record-at-a-time store the columnar layout replaced: one
// attribute map per record, every value lowercased on every comparison. The
// differential below holds Store.Execute to it.
type refStore struct{ records []Record }

func (rs *refStore) execute(q query.Query) []Record {
	var projections []schema.Attribute
	for _, op := range q.Ops {
		if op.Kind == query.Project {
			projections = append(projections, op.Attr)
		}
	}
	var out []Record
	for _, rec := range rs.records {
		ok := true
		for _, op := range q.Ops {
			if op.Kind != query.Select {
				continue
			}
			found := false
			for _, v := range rec[op.Attr] {
				if strings.Contains(strings.ToLower(v), strings.ToLower(op.Literal)) {
					found = true
					break
				}
			}
			ok = ok && found
		}
		if !ok {
			continue
		}
		if len(projections) == 0 {
			out = append(out, rec.Clone())
			continue
		}
		proj := make(Record, len(projections))
		for _, a := range projections {
			if vs, ok := rec[a]; ok {
				proj[a] = append([]string(nil), vs...)
			}
		}
		out = append(out, proj)
	}
	return out
}

func artSchema() *schema.Schema { return schema.MustNew("Art", "Title", "Creator", "Tag", "Year") }

// artRecords: case-folding values (É, İ), a multi-valued attribute, an
// attribute carried with no values, and a record that carries nothing.
func artRecords() []Record {
	return []Record{
		{"Title": {"Élan vital"}, "Creator": {"İsmail"}, "Tag": {"oil", "Bridge"}},
		{"Title": {"élan"}, "Creator": {}},
		{"Creator": {"ROBINSON"}, "Tag": nil},
		{},
	}
}

func sel(a schema.Attribute, lit string) query.Op {
	return query.Op{Kind: query.Select, Attr: a, Literal: lit}
}

func proj(a schema.Attribute) query.Op { return query.Op{Kind: query.Project, Attr: a} }

var executeCases = []struct {
	name string
	ops  []query.Op
	want []Record
}{
	{
		"no operations returns every record whole",
		nil,
		[]Record{
			{"Title": {"Élan vital"}, "Creator": {"İsmail"}, "Tag": {"oil", "Bridge"}},
			{"Title": {"élan"}, "Creator": nil},
			{"Creator": {"ROBINSON"}, "Tag": nil},
			{},
		},
	},
	{
		"É folds to é on both sides",
		[]query.Op{sel("Title", "ÉLAN")},
		[]Record{
			{"Title": {"Élan vital"}, "Creator": {"İsmail"}, "Tag": {"oil", "Bridge"}},
			{"Title": {"élan"}, "Creator": nil},
		},
	},
	{
		"İ lowers to a plain i",
		[]query.Op{sel("Creator", "ismail")},
		[]Record{{"Title": {"Élan vital"}, "Creator": {"İsmail"}, "Tag": {"oil", "Bridge"}}},
	},
	{
		"dotless ı stays apart from i",
		[]query.Op{sel("Creator", "ıSMAIL")},
		nil,
	},
	{
		"any value of a multi-valued attribute matches",
		[]query.Op{sel("Tag", "bridge"), proj("Tag")},
		[]Record{{"Tag": {"oil", "Bridge"}}},
	},
	{
		"an empty literal matches any value, never an empty attribute",
		[]query.Op{sel("Tag", "")},
		[]Record{{"Title": {"Élan vital"}, "Creator": {"İsmail"}, "Tag": {"oil", "Bridge"}}},
	},
	{
		"an absent attribute never matches",
		[]query.Op{sel("Year", "")},
		nil,
	},
	{
		"a projection keeps an attribute carried with no values",
		[]query.Op{proj("Creator")},
		[]Record{{"Creator": {"İsmail"}}, {"Creator": nil}, {"Creator": {"ROBINSON"}}, {}},
	},
	{
		"selections conjoin and projections may repeat",
		[]query.Op{sel("Creator", "rob"), sel("Creator", "SON"), proj("Creator"), proj("Creator"), proj("Title")},
		[]Record{{"Creator": {"ROBINSON"}}},
	},
}

// TestExecuteCases pins Execute on named cases, one expected result per row.
func TestExecuteCases(t *testing.T) {
	st, _ := NewStore(artSchema())
	for _, r := range artRecords() {
		if err := st.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range executeCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := st.Execute(query.MustNew(st.Schema(), tc.ops...))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got  %#v\nwant %#v", got, tc.want)
			}
		})
	}
}

// TestExecuteResultsAreFresh: results share no values with the store or with
// each other — appending to one result's values never shows in another's.
func TestExecuteResultsAreFresh(t *testing.T) {
	st, _ := NewStore(artSchema())
	for _, r := range artRecords() {
		_ = st.Insert(r)
	}
	q := query.MustNew(st.Schema())
	first, _ := st.Execute(q)
	first[0]["Tag"][0] = "MUTATED"
	_ = append(first[0]["Title"], "spill")
	again, _ := st.Execute(q)
	if !reflect.DeepEqual(again, executeCases[0].want) {
		t.Errorf("a mutated result reached the store: %#v", again)
	}
	if first[0]["Creator"][0] != "İsmail" {
		t.Errorf("appending to one attribute's values overwrote another's: %#v", first[0])
	}
}

// foldingAlphabet mixes ASCII with runes whose lowercase differs in width or
// form (É, İ, the Kelvin sign, ß), a rune with no case, and an invalid byte
// that ToLower replaces with U+FFFD.
var foldingAlphabet = []string{"a", "B", "c", "É", "é", "İ", "i", "I", "ı", "K", "k", "ß", "ẞ", "7", " ", "\xff"}

func randText(rng *rand.Rand, max int) string {
	var b strings.Builder
	for n := rng.Intn(max + 1); n > 0; n-- {
		b.WriteString(foldingAlphabet[rng.Intn(len(foldingAlphabet))])
	}
	return b.String()
}

// TestExecuteMatchesReference: on random stores and queries, the columnar
// Execute returns exactly what the record-at-a-time reference returns —
// same records, same order, same values, present-but-empty attributes kept.
func TestExecuteMatchesReference(t *testing.T) {
	sch := artSchema()
	attrs := sch.Attributes()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st, _ := NewStore(sch)
		ref := &refStore{}
		for i := rng.Intn(12); i > 0; i-- {
			rec := Record{}
			for _, a := range attrs {
				switch rng.Intn(4) {
				case 0: // absent
				case 1:
					rec[a] = nil
				default:
					vs := make([]string, 1+rng.Intn(3))
					for j := range vs {
						vs[j] = randText(rng, 5)
					}
					rec[a] = vs
				}
			}
			if err := st.Insert(rec); err != nil {
				t.Fatal(err)
			}
			ref.records = append(ref.records, rec.Clone())
		}
		for k := 0; k < 20; k++ {
			var ops []query.Op
			for n := rng.Intn(4); n > 0; n-- {
				a := attrs[rng.Intn(len(attrs))]
				if rng.Intn(2) == 0 {
					ops = append(ops, proj(a))
				} else {
					ops = append(ops, sel(a, randText(rng, 2)))
				}
			}
			q := query.MustNew(sch, ops...)
			got, err := st.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.execute(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s:\ngot  %#v\nwant %#v", seed, q, got, want)
			}
		}
	}
}

// refCanonical is CanonicalString as first written: strconv.Quote strings
// joined by a strings.Builder after sort.Strings.
func refCanonical(r Record) string {
	attrs := make([]string, 0, len(r))
	for a := range r {
		attrs = append(attrs, string(a))
	}
	sort.Strings(attrs)
	var b strings.Builder
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(strconv.Quote(a))
		b.WriteByte('=')
		for j, v := range r[schema.Attribute(a)] {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(v))
		}
	}
	return b.String()
}

// TestCanonicalStringMatchesQuoteReference: on random records — delimiters,
// quotes, control bytes, invalid UTF-8 and wide runes in names and values,
// more attributes than the sort's stack buffer — CanonicalString renders
// exactly the reference's bytes, and AppendCanonical appends them.
func TestCanonicalStringMatchesQuoteReference(t *testing.T) {
	pieces := []string{"a", "Z", ";", "=", ",", `"`, `\`, "\n", "\x00", "\x7f", "É", "İ", "\xff", "€", " "}
	text := func(rng *rand.Rand) string {
		var b strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := Record{}
		for n := rng.Intn(12); n > 0; n-- {
			vs := make([]string, rng.Intn(3))
			for j := range vs {
				vs[j] = text(rng)
			}
			if rng.Intn(5) == 0 {
				vs = nil
			}
			r[schema.Attribute(text(rng))] = vs
		}
		want := refCanonical(r)
		if got := r.CanonicalString(); got != want {
			t.Fatalf("seed %d: CanonicalString %q, reference %q", seed, got, want)
		}
		if got := string(r.AppendCanonical([]byte("prefix"))); got != "prefix"+want {
			t.Fatalf("seed %d: AppendCanonical %q, want the prefix then %q", seed, got, want)
		}
	}
}
