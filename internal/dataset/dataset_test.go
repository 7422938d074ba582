package dataset

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewSchema("A", ""); err == nil {
		t.Error("empty attribute name should fail")
	}
	if _, err := NewSchema("A", "B", "A"); err == nil {
		t.Error("duplicate attribute should fail")
	}
	s, err := NewSchema("A", "B", "C")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestSchemaLookup(t *testing.T) {
	s := MustSchema("A", "B", "C")
	if i, ok := s.Index("B"); !ok || i != 1 {
		t.Errorf("Index(B) = %d,%v want 1,true", i, ok)
	}
	if _, ok := s.Index("Z"); ok {
		t.Error("Index(Z) should miss")
	}
	if !s.Has("C") || s.Has("Z") {
		t.Error("Has misbehaves")
	}
	if s.Attr(2) != "C" {
		t.Errorf("Attr(2) = %q", s.Attr(2))
	}
	if got := s.Attrs(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Errorf("Attrs = %v", got)
	}
	// Attrs must return a copy.
	s.Attrs()[0] = "mutated"
	if s.Attr(0) != "A" {
		t.Error("Attrs leaked internal slice")
	}
}

func TestSchemaMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on unknown attribute should panic")
		}
	}()
	MustSchema("A").MustIndex("B")
}

func TestSchemaEqual(t *testing.T) {
	a := MustSchema("A", "B")
	if !a.Equal(MustSchema("A", "B")) {
		t.Error("identical schemas should be equal")
	}
	if a.Equal(MustSchema("B", "A")) {
		t.Error("order matters")
	}
	if a.Equal(MustSchema("A")) {
		t.Error("length matters")
	}
}

func TestTableAppendAndCells(t *testing.T) {
	tb := NewTable(MustSchema("A", "B"))
	tp, err := tb.Append("1", "2")
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if tp.ID != 0 {
		t.Errorf("first tuple ID = %d", tp.ID)
	}
	if _, err := tb.Append("only-one"); err == nil {
		t.Error("width mismatch should fail")
	}
	tb.MustAppend("3", "4")
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if got := tb.Cell(tb.Tuples[1], "B"); got != "4" {
		t.Errorf("Cell = %q", got)
	}
	tb.SetCell(tb.Tuples[1], "B", "9")
	if got := tb.Cell(tb.Tuples[1], "B"); got != "9" {
		t.Errorf("SetCell not applied, got %q", got)
	}
}

func TestTableAppendCopiesValues(t *testing.T) {
	tb := NewTable(MustSchema("A"))
	vals := []string{"x"}
	tb.MustAppend(vals...)
	vals[0] = "mutated"
	if tb.Tuples[0].Values[0] != "x" {
		t.Error("Append must copy the value slice")
	}
}

func TestTableByID(t *testing.T) {
	tb := NewTable(MustSchema("A"))
	for i := 0; i < 5; i++ {
		tb.MustAppend(string(rune('a' + i)))
	}
	if got := tb.ByID(3); got == nil || got.Values[0] != "d" {
		t.Errorf("ByID(3) = %v", got)
	}
	// After removing a tuple (dedup-style), positional shortcut misses but
	// the scan still finds it.
	tb.Tuples = append(tb.Tuples[:1], tb.Tuples[2:]...)
	if got := tb.ByID(3); got == nil || got.Values[0] != "d" {
		t.Errorf("ByID(3) after removal = %v", got)
	}
	if got := tb.ByID(1); got != nil {
		t.Errorf("removed tuple found: %v", got)
	}
	if got := tb.ByID(99); got != nil {
		t.Errorf("ByID(99) = %v, want nil", got)
	}
}

func TestTableCloneIsDeep(t *testing.T) {
	tb := NewTable(MustSchema("A"))
	tb.MustAppend("x")
	tb.MustAppend("z")
	cl := tb.Clone()
	cl.Tuples[0].Values[0] = "y"
	if tb.Tuples[0].Values[0] != "x" {
		t.Error("Clone must deep-copy tuples")
	}
	// The clone's values share one array: growing a tuple must leave it.
	_ = append(cl.Tuples[0].Values, "w")
	if cl.Tuples[1].Values[0] != "z" {
		t.Error("appending to a cloned tuple's Values wrote into its neighbour")
	}
}

func TestProjectAndKey(t *testing.T) {
	tb := NewTable(MustSchema("A", "B", "C"))
	tp := tb.MustAppend("1", "2", "3")
	if got := tb.Project(tp, []string{"C", "A"}); !reflect.DeepEqual(got, []string{"3", "1"}) {
		t.Errorf("Project = %v", got)
	}
	k := tb.Key(tp, []string{"A", "B"})
	if got := SplitKey(k); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("SplitKey(Key) = %v", got)
	}
}

func TestJoinSplitKeyRoundtrip(t *testing.T) {
	f := func(vals []string) bool {
		for i := range vals {
			// The separator byte must not occur inside values.
			vals[i] = strings.ReplaceAll(vals[i], "\x1f", "_")
		}
		if len(vals) == 0 {
			return true
		}
		return reflect.DeepEqual(SplitKey(JoinKey(vals)), vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDomainAndValueCounts(t *testing.T) {
	tb := NewTable(MustSchema("A"))
	for _, v := range []string{"b", "a", "b", "c", "a", "b"} {
		tb.MustAppend(v)
	}
	if got := tb.Domain("A"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Domain = %v", got)
	}
	counts := tb.ValueCounts("A")
	if counts["b"] != 3 || counts["a"] != 2 || counts["c"] != 1 {
		t.Errorf("ValueCounts = %v", counts)
	}
}

func TestDiff(t *testing.T) {
	a := NewTable(MustSchema("A", "B"))
	a.MustAppend("1", "2")
	a.MustAppend("3", "4")
	b := a.Clone()
	if d := a.Diff(b); len(d) != 0 {
		t.Fatalf("identical tables diff: %v", d)
	}
	b.Tuples[1].Values[0] = "X"
	d := a.Diff(b)
	if len(d) != 1 || d[0].TupleID != 1 || d[0].Attr != "A" || d[0].Got != "3" || d[0].Want != "X" {
		t.Errorf("Diff = %+v", d)
	}
	// Missing tuple on one side.
	b.Tuples = b.Tuples[:1]
	d = a.Diff(b)
	if len(d) != 1 || d[0].TupleID != 1 {
		t.Errorf("Diff with missing tuple = %+v", d)
	}
}

func TestStringRendering(t *testing.T) {
	tb := NewTable(MustSchema("Name", "X"))
	tb.MustAppend("alpha", "1")
	s := tb.String()
	if !strings.Contains(s, "Name") || !strings.Contains(s, "alpha") || !strings.Contains(s, "t0") {
		t.Errorf("String output missing content:\n%s", s)
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	tp := &Tuple{ID: 7, Values: []string{"a", "b"}}
	cl := tp.Clone()
	cl.Values[0] = "z"
	if tp.Values[0] != "a" {
		t.Error("Tuple.Clone must copy values")
	}
	if cl.ID != 7 {
		t.Error("Tuple.Clone must keep ID")
	}
}

// TestPositions: positional IDs map through the identity, any other naming
// through one map, and an ID the table lacks is reported absent.
func TestPositions(t *testing.T) {
	tb := NewTable(MustSchema("A"))
	for _, v := range []string{"x", "y", "z"} {
		tb.MustAppend(v)
	}
	if p := tb.Positions(); p.at != nil {
		t.Fatal("positional IDs built a map")
	}
	tb.Tuples[0].ID, tb.Tuples[2].ID = 1<<40, 5
	p := tb.Positions()
	for _, c := range []struct{ id, pos int }{{1 << 40, 0}, {1, 1}, {5, 2}} {
		if got, ok := p.Of(c.id); !ok || got != c.pos {
			t.Errorf("Of(%d) = %d, %v, want %d", c.id, got, ok, c.pos)
		}
	}
	for _, id := range []int{-1, 0, 2, 3} {
		if _, ok := p.Of(id); ok {
			t.Errorf("Of(%d) found a tuple the table lacks", id)
		}
	}
	if _, ok := NewTable(MustSchema("A")).Positions().Of(0); ok {
		t.Error("an empty table holds tuple 0")
	}
}

// TestRepeatedID: positional and unique non-positional IDs pass, and a
// repeat is named wherever it sits.
func TestRepeatedID(t *testing.T) {
	tb := NewTable(MustSchema("A"))
	for _, v := range []string{"w", "x", "y", "z"} {
		tb.MustAppend(v)
	}
	for _, c := range []struct {
		ids  []int
		want int
		ok   bool
	}{
		{[]int{0, 1, 2, 3}, 0, false},
		{[]int{9, 1, 5, 0}, 0, false},
		{[]int{0, 1, 2, 2}, 2, true},
		{[]int{7, 1, 7, 3}, 7, true},
		{[]int{5, 5, 5, 5}, 5, true},
	} {
		for i, id := range c.ids {
			tb.Tuples[i].ID = id
		}
		if got, ok := tb.RepeatedID(); got != c.want || ok != c.ok {
			t.Errorf("IDs %v: RepeatedID = %d, %v, want %d, %v", c.ids, got, ok, c.want, c.ok)
		}
	}
}
