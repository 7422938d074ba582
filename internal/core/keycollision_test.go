package core

import (
	"reflect"
	"testing"

	"mlnclean/internal/dataset"
	"mlnclean/internal/rules"
)

// TestDedupSeparatorCollision: two DISTINCT rows whose full-row joined keys
// collide (a value contains the 0x1f separator) must both survive duplicate
// elimination, while true duplicates are still removed. The string-keyed
// dedup conflated the former; row identity is a sequence of value IDs now,
// on the pipeline's own rows (Clean) and through the string entry (Dedup).
func TestDedupSeparatorCollision(t *testing.T) {
	sep := "\x1f"
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
