package index

import (
	"testing"

	"mlnclean/internal/dataset"
)

// TestIteratorMatchesBuild: draining a BlockIterator yields byte-for-byte
// the index BuildConfigured produces.
func TestIteratorMatchesBuild(t *testing.T) {
	rs := plannedRules(t)
	built, err := BuildConfigured(plannedTable(t), rs, BuildConfig{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	it, err := NewBlockIterator(plannedTable(t), rs, BuildConfig{})
	if err != nil {
		t.Fatalf("iterator: %v", err)
	}
	if it.Len() != len(rs) {
		t.Fatalf("Len = %d, want %d", it.Len(), len(rs))
	}
	n := 0
	for {
		bi, b, ok := it.Next()
		if !ok {
			break
		}
		if bi != n {
			t.Fatalf("block index %d out of order (want %d)", bi, n)
		}
		if b.Rule.ID != rs[n].ID {
			t.Fatalf("block %d rule %s, want %s", bi, b.Rule.ID, rs[n].ID)
		}
		n++
	}
	if n != len(rs) {
		t.Fatalf("iterator yielded %d blocks, want %d", n, len(rs))
	}
	if _, _, ok := it.Next(); ok {
		t.Fatal("Next after exhaustion must report done")
	}
	if di, db := dumpIndex(it.Index()), dumpIndex(built); di != db {
		t.Errorf("iterated index differs from built:\n--- built ---\n%s--- iterated ---\n%s", db, di)
	}
}

// TestIteratorAdoptsEncoded: a pre-encoded companion (the streaming ingest
// path) is adopted verbatim — same dictionary, same rows — and a misaligned
// one is rejected.
func TestIteratorAdoptsEncoded(t *testing.T) {
	rs := plannedRules(t)
	tb := plannedTable(t)
	enc := dataset.Encode(tb, nil)
	ix, err := BuildConfigured(tb, rs, BuildConfig{Encoded: enc})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Encoded() != enc || ix.Dict() != enc.Dict {
		t.Fatal("index must adopt the supplied encoding")
	}
	fresh, err := BuildConfigured(tb, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if da, db := dumpIndex(ix), dumpIndex(fresh); da != db {
		t.Errorf("pre-encoded build differs from fresh build:\n%s\nvs\n%s", da, db)
	}

	short := &dataset.Encoded{Dict: enc.Dict, Rows: enc.Rows[:len(enc.Rows)-1]}
	if _, err := BuildConfigured(tb, rs, BuildConfig{Encoded: short}); err == nil {
		t.Fatal("misaligned encoding must be rejected")
	}
}
