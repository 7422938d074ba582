package core

import (
	"reflect"
	"testing"

	"mlnclean/internal/dataset"
	"mlnclean/internal/rules"
)

// sep is dataset.JoinKey's separator.
const sep = "\x1f"

// TestDedupSeparatorCollision: two DISTINCT rows whose full-row joined keys
// collide (a value contains the 0x1f separator) must both survive duplicate
// elimination, while true duplicates are still removed. The string-keyed
// dedup conflated the former; row identity is a sequence of value IDs now,
// on the pipeline's own rows (Clean) and through the string entry (Dedup).
func TestDedupSeparatorCollision(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("x"+sep+"y", "z") // joins like the next row
	tb.MustAppend("x", "y"+sep+"z")
	tb.MustAppend("x", "y"+sep+"z") // a true duplicate of row 1
	rs := rules.MustParseStrings("FD: A -> B")
	res, err := Clean(tb, rs, Options{Tau: 0, TauSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean.Len() != 2 {
		t.Fatalf("clean rows = %d, want 2 (collision row kept, true duplicate removed)", res.Clean.Len())
	}
	if len(res.Duplicates) != 1 || len(res.Duplicates[0]) != 2 {
		t.Errorf("duplicate sets = %v, want exactly the true duplicate pair", res.Duplicates)
	}
	if res.Stats.DuplicatesRemoved != 1 {
		t.Errorf("DuplicatesRemoved = %d, want 1", res.Stats.DuplicatesRemoved)
	}
	clean, dups := Dedup(res.Repaired)
	if clean.Len() != 2 || !reflect.DeepEqual(dups, res.Duplicates) {
		t.Errorf("Dedup(Repaired): %d rows, sets %v; the pipeline kept 2 rows, sets %v", clean.Len(), dups, res.Duplicates)
	}
}

// collisionRule is FD: A, B -> C, whose group reasons (x␟y, z) and
// (x, y␟z) join to the same display string.
var collisionRule = rules.MustParseStrings("FD: A, B -> C")

// collisionTable holds rows with tuple IDs 0, 1, ….
func collisionTable(rows ...[]string) *dataset.Table {
	tb := dataset.NewTable(dataset.MustSchema("A", "B", "C"))
	for _, r := range rows {
		tb.MustAppend(r...)
	}
	return tb
}

// checkDeltaAgainstClean loads tb into a delta engine, applies muts as one
// batch, and requires the result to equal Clean of the engine's table.
func checkDeltaAgainstClean(t *testing.T, tb *dataset.Table, muts []Mutation) {
	t.Helper()
	opts := Options{Tau: 1}
	eng, err := NewDeltaCleaner(tb.Schema, collisionRule, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(tb); err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "apply", res, nil, eng.Table(), collisionRule, opts)
}

// TestDeltaAGPCollidingTargets: two normal groups whose reasons join alike
// are two AGP targets. An unrelated insert rebuilds the block, and the
// abnormal source (x␟y, zz) must keep merging into its nearest group
// (x␟y, z), as a full clean does, not into the other colliding one.
func TestDeltaAGPCollidingTargets(t *testing.T) {
	tb := collisionTable(
		[]string{"x" + sep + "y", "z", "c1"},
		[]string{"x" + sep + "y", "z", "c1"},
		[]string{"x", "y" + sep + "z", "c2"},
		[]string{"x", "y" + sep + "z", "c2"},
		[]string{"x" + sep + "y", "zz", "c1"},
	)
	checkDeltaAgainstClean(t, tb, []Mutation{{Op: DeltaPut, Row: 5, Values: []string{"q", "w", "c3"}}})
}

// TestDeltaAGPCollidingTie: after the inserts T1's γ⋆ becomes (x␟y, z, c),
// and the source (x␟y, y␟z, c) is then at distance 2 from both targets. Its
// reused decision and a fresh search must break that tie alike, so the
// tie-break has to order the two colliding reasons.
func TestDeltaAGPCollidingTie(t *testing.T) {
	t1 := []string{"x" + sep + "y", "z", "d"}
	t2 := []string{"x", "y" + sep + "z", "c"}
	tb := collisionTable(t1, t1, t2, t2, []string{"x" + sep + "y", "y" + sep + "z", "c"})
	put := []string{"x" + sep + "y", "z", "c"}
	checkDeltaAgainstClean(t, tb, []Mutation{
		{Op: DeltaPut, Row: 5, Values: put},
		{Op: DeltaPut, Row: 6, Values: put},
		{Op: DeltaPut, Row: 7, Values: put},
	})
}

// hostileValues are FuzzDeltaParity's cell values: some hold the separator,
// some are prefixes of others, one is empty.
var hostileValues = []string{
	"", "x", "y", "z", "zz", "x" + sep + "y", "y" + sep + "z", "x" + sep, sep + "y", sep,
	"c", "d", "c1", "c2", "c3", "q", "w",
}

// FuzzDeltaParity: every three bytes of data are one row over hostileValues
// under FD: A, B -> C. The first rows are loaded into a delta engine and the
// rest are inserted in one Apply, which must equal Clean of the same table.
func FuzzDeltaParity(f *testing.F) {
	// The two cases TestDeltaAGPCollidingTargets and TestDeltaAGPCollidingTie
	// pin, in hostileValues indices.
	f.Add([]byte{5, 3, 12, 5, 3, 12, 1, 6, 13, 1, 6, 13, 5, 4, 12, 15, 16, 14}, uint8(4))
	f.Add([]byte{5, 3, 11, 5, 3, 11, 1, 6, 10, 1, 6, 10, 5, 6, 10, 5, 3, 10, 5, 3, 10, 5, 3, 10}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, load uint8) {
		rows := min(len(data)/3, 16)
		if rows < 2 {
			return
		}
		vals := func(r int) []string {
			out := make([]string, 3)
			for i := range out {
				out[i] = hostileValues[int(data[3*r+i])%len(hostileValues)]
			}
			return out
		}
		n := 1 + int(load)%(rows-1) // at least one row each side
		tb := collisionTable()
		for r := range n {
			tb.MustAppend(vals(r)...)
		}
		var muts []Mutation
		for r := n; r < rows; r++ {
			muts = append(muts, Mutation{Op: DeltaPut, Row: r, Values: vals(r)})
		}
		checkDeltaAgainstClean(t, tb, muts)
	})
}
