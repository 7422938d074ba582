// Package dataset provides the relational data model used throughout
// MLNClean: schemas, tuples, tables, and cell addressing. A Table is an
// ordered multiset of tuples over a fixed attribute schema; every value is a
// string, matching the paper's string-distance based cleaning semantics.
package dataset

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is an ordered list of attribute names with O(1) name lookup.
type Schema struct {
	attrs []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. Names must be unique and
// non-empty.
func NewSchema(attrs ...string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dataset: schema needs at least one attribute")
	}
	s := &Schema{attrs: make([]string, len(attrs)), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("dataset: empty attribute name at position %d", i)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute %q", a)
		}
		s.attrs[i] = a
		s.index[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(attrs ...string) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attrs returns a copy of the attribute names in schema order.
func (s *Schema) Attrs() []string {
	out := make([]string, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Attr returns the attribute name at position i.
func (s *Schema) Attr(i int) string { return s.attrs[i] }

// Index returns the position of the named attribute and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of the named attribute, panicking if absent.
// Use only where the attribute is statically known to exist (e.g. after rule
// validation against this schema).
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("dataset: unknown attribute %q", name))
	}
	return i
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// Tuple is a row: a stable integer ID plus one string value per attribute.
// The ID survives cleaning so that repaired tables can be diffed against the
// dirty input and the ground truth.
type Tuple struct {
	ID     int
	Values []string
}

// Clone returns a deep copy of the tuple.
func (t *Tuple) Clone() *Tuple {
	v := make([]string, len(t.Values))
	copy(v, t.Values)
	return &Tuple{ID: t.ID, Values: v}
}

// Table is a schema plus an ordered list of tuples.
type Table struct {
	Schema *Schema
	Tuples []*Tuple
}

// NewTable creates an empty table over the schema.
func NewTable(s *Schema) *Table {
	return &Table{Schema: s}
}

// Append adds a row of values, assigning the next sequential ID, and returns
// the created tuple. The number of values must match the schema width.
func (tb *Table) Append(values ...string) (*Tuple, error) {
	if len(values) != tb.Schema.Len() {
		return nil, fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(values), tb.Schema.Len())
	}
	v := make([]string, len(values))
	copy(v, values)
	t := &Tuple{ID: len(tb.Tuples), Values: v}
	tb.Tuples = append(tb.Tuples, t)
	return t, nil
}

// MustAppend is Append that panics on width mismatch; for tests and literals.
func (tb *Table) MustAppend(values ...string) *Tuple {
	t, err := tb.Append(values...)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of tuples.
func (tb *Table) Len() int { return len(tb.Tuples) }

// Cell returns the value of tuple t on the named attribute.
func (tb *Table) Cell(t *Tuple, attr string) string {
	return t.Values[tb.Schema.MustIndex(attr)]
}

// SetCell assigns the value of tuple t on the named attribute.
func (tb *Table) SetCell(t *Tuple, attr, value string) {
	t.Values[tb.Schema.MustIndex(attr)] = value
}

// ByID returns the tuple with the given ID, or nil. IDs assigned by Append
// are positional, but cleaned tables may have gaps after deduplication, so
// this scans when the positional shortcut misses.
func (tb *Table) ByID(id int) *Tuple {
	if id >= 0 && id < len(tb.Tuples) && tb.Tuples[id].ID == id {
		return tb.Tuples[id]
	}
	for _, t := range tb.Tuples {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Positions maps a table's tuple IDs to their positions in Tuples.
type Positions struct {
	n  int
	at map[int]int // nil when every tuple's ID is its position
}

// Positions indexes tb's tuple IDs by position. When every tuple's ID is its
// position — as Append, the CSV readers and a StreamEncoder assign them —
// the mapping is the identity and no map is built; otherwise one map is,
// keeping the last position of a repeated ID (RepeatedID finds one).
func (tb *Table) Positions() Positions {
	for i, t := range tb.Tuples {
		if t.ID != i {
			at := make(map[int]int, len(tb.Tuples))
			for j, u := range tb.Tuples {
				at[u.ID] = j
			}
			return Positions{n: len(tb.Tuples), at: at}
		}
	}
	return Positions{n: len(tb.Tuples)}
}

// RepeatedID returns a tuple ID that tb holds more than once; ok is false
// when every ID is unique. A table whose IDs are its positions is checked
// without a map.
func (tb *Table) RepeatedID() (id int, ok bool) {
	p := tb.Positions()
	if len(p.at) == 0 || len(p.at) == p.n {
		return 0, false
	}
	// Positions kept each ID's last position: the first tuple that is not
	// at its ID's position is an earlier copy.
	for i, t := range tb.Tuples {
		if p.at[t.ID] != i {
			return t.ID, true
		}
	}
	return 0, false
}

// Of returns the position of the tuple with the given ID; ok is false when
// the table holds no such tuple.
func (p Positions) Of(id int) (pos int, ok bool) {
	if p.at == nil {
		return id, id >= 0 && id < p.n
	}
	pos, ok = p.at[id]
	return pos, ok
}

// Clone returns a deep copy of the table sharing the (immutable) schema. The
// copy's tuples and values are carved from one exactly-sized array each, so
// a clone costs the same few allocations whatever the row count; appending to
// one tuple's Values reallocates instead of writing into its neighbour.
func (tb *Table) Clone() *Table {
	cells := 0
	for _, t := range tb.Tuples {
		cells += len(t.Values)
	}
	tuples := make([]Tuple, len(tb.Tuples))
	vals := make([]string, cells)
	out := &Table{Schema: tb.Schema, Tuples: make([]*Tuple, len(tb.Tuples))}
	for i, t := range tb.Tuples {
		n := copy(vals, t.Values)
		tuples[i] = Tuple{ID: t.ID, Values: vals[:n:n]}
		vals = vals[n:]
		out.Tuples[i] = &tuples[i]
	}
	return out
}

// Project returns the values of tuple t on the given attributes, in order.
func (tb *Table) Project(t *Tuple, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = t.Values[tb.Schema.MustIndex(a)]
	}
	return out
}

// Domain returns the sorted set of distinct values of the named attribute.
func (tb *Table) Domain(attr string) []string {
	i := tb.Schema.MustIndex(attr)
	seen := make(map[string]struct{})
	for _, t := range tb.Tuples {
		seen[t.Values[i]] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ValueCounts returns the frequency of each distinct value of the attribute.
func (tb *Table) ValueCounts(attr string) map[string]int {
	i := tb.Schema.MustIndex(attr)
	counts := make(map[string]int)
	for _, t := range tb.Tuples {
		counts[t.Values[i]]++
	}
	return counts
}

// Key joins the projection of t onto attrs with an unprintable separator
// (0x1f, ASCII unit separator).
//
// Display/eval only: a value containing the separator byte makes the join
// ambiguous ({"a\x1fb"} and {"a","b"} collide), so joined keys must never
// decide pipeline identity. The cleaning hot path keys pieces, groups, and
// duplicates on interned ID sequences (internal/intern), which are immune;
// joined keys survive only in traces (core.Trace), evaluation
// (internal/eval), and the piece keys the delta parity tests compare,
// where they are compared against other joins of the same shape.
const keySep = "\x1f"

// Key returns a composite display key for tuple t over attrs.
func (tb *Table) Key(t *Tuple, attrs []string) string {
	return strings.Join(tb.Project(t, attrs), keySep)
}

// JoinKey joins already-projected values into a composite display key. See
// Key for why this must not be used as a pipeline identity.
func JoinKey(values []string) string { return strings.Join(values, keySep) }

// SplitKey splits a composite key back into its values.
func SplitKey(key string) []string { return strings.Split(key, keySep) }

// String renders the table as an aligned text grid (for examples and debug).
func (tb *Table) String() string {
	var b strings.Builder
	widths := make([]int, tb.Schema.Len())
	for i, a := range tb.Schema.attrs {
		widths[i] = len(a)
	}
	for _, t := range tb.Tuples {
		for i, v := range t.Values {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	fmt.Fprintf(&b, "%-4s", "TID")
	for i, a := range tb.Schema.attrs {
		fmt.Fprintf(&b, " %-*s", widths[i], a)
	}
	b.WriteByte('\n')
	for _, t := range tb.Tuples {
		fmt.Fprintf(&b, "t%-3d", t.ID)
		for i, v := range t.Values {
			fmt.Fprintf(&b, " %-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Diff lists the cells at which two tables with identical schemas and tuple
// IDs differ. Tuples present in only one table are reported with attr "" and
// the side that has them in Got/Want.
type CellDiff struct {
	TupleID int
	Attr    string
	Got     string
	Want    string
}

// Diff compares tb (got) against want, matching tuples by ID.
func (tb *Table) Diff(want *Table) []CellDiff {
	var diffs []CellDiff
	wantByID := make(map[int]*Tuple, want.Len())
	for _, t := range want.Tuples {
		wantByID[t.ID] = t
	}
	seen := make(map[int]bool, tb.Len())
	for _, t := range tb.Tuples {
		seen[t.ID] = true
		w, ok := wantByID[t.ID]
		if !ok {
			diffs = append(diffs, CellDiff{TupleID: t.ID, Got: "present", Want: "absent"})
			continue
		}
		for i := range t.Values {
			if t.Values[i] != w.Values[i] {
				diffs = append(diffs, CellDiff{TupleID: t.ID, Attr: tb.Schema.Attr(i), Got: t.Values[i], Want: w.Values[i]})
			}
		}
	}
	for _, w := range want.Tuples {
		if !seen[w.ID] {
			diffs = append(diffs, CellDiff{TupleID: w.ID, Got: "absent", Want: "present"})
		}
	}
	sort.Slice(diffs, func(i, j int) bool {
		if diffs[i].TupleID != diffs[j].TupleID {
			return diffs[i].TupleID < diffs[j].TupleID
		}
		return diffs[i].Attr < diffs[j].Attr
	})
	return diffs
}
