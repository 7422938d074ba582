package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"mlnclean/internal/dataset"
)

// TestDeltaNeverWritesHandedRows: the engine keeps the tuples LoadVersion is
// handed and every Mutation's Values as they are, and writes none of them,
// nor the order of the loaded table's tuple slice. The table is CAR 5k in
// shuffled order; a 300-step serving mix's replace and insert kinds hand the
// engine the loaded table's own value slices, several mutations sharing one.
// Digests of the table and of every mutation must not move, and the last
// version must be Clean's Result of the folded table.
func TestDeltaNeverWritesHandedRows(t *testing.T) {
	inj, rs := carSessionTable(t, 5000)
	muts := serveMix(inj, 300, 4200)
	in := &dataset.Table{Schema: inj.Dirty.Schema, Tuples: append([]*dataset.Tuple(nil), inj.Dirty.Tuples...)}
	rand.New(rand.NewSource(56)).Shuffle(len(in.Tuples), func(i, j int) {
		in.Tuples[i], in.Tuples[j] = in.Tuples[j], in.Tuples[i]
	})

	// The mix must share value slices, or the test proves nothing.
	seen := make(map[*string]bool, in.Len())
	for _, tp := range in.Tuples {
		seen[&tp.Values[0]] = true
	}
	shared := 0
	for _, m := range muts {
		if m.Op == DeltaPut {
			if seen[&m.Values[0]] {
				shared++
			}
			seen[&m.Values[0]] = true
		}
	}
	if shared < 50 {
		t.Fatalf("only %d of %d mutations share a value slice", shared, len(muts))
	}

	digest := func() [32]byte {
		h := sha256.New()
		for _, tp := range in.Tuples {
			fmt.Fprintf(h, "%d%q\n", tp.ID, tp.Values)
		}
		for _, m := range muts {
			fmt.Fprintf(h, "%d%q\n", m.Row, m.Values)
		}
		return [32]byte(h.Sum(nil))
	}
	before := digest()

	opts := Options{Tau: 1}
	eng, err := NewDeltaCleaner(in.Schema, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.LoadVersion(in)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[int][]string, in.Len())
	for _, tp := range in.Tuples {
		rows[tp.ID] = tp.Values
	}
	for step, m := range muts {
		if v, _, err = eng.ApplyVersion([]Mutation{m}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if m.Op == DeltaDelete {
			delete(rows, m.Row)
		} else {
			rows[m.Row] = m.Values
		}
	}
	if digest() != before {
		t.Fatal("the engine wrote a tuple, a mutation's values or the loaded table's order")
	}
	assertParity(t, "last version", v.Result(), blocksOf(eng, nil), refTable(in.Schema, rows), rs, opts)
}
