package intern

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	d := NewDict()
	words := []string{"", "a", "b", "münchen", "東京都", "a\x1fb", "\x1f", "a"}
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = d.Intern(w)
	}
	if ids[1] != ids[len(words)-1] {
		t.Errorf("re-interning %q changed its ID: %d vs %d", "a", ids[1], ids[len(words)-1])
	}
	for i, w := range words {
		if got := d.Value(ids[i]); got != w {
			t.Errorf("Value(Intern(%q)) = %q", w, got)
		}
	}
	if d.Len() != len(words)-1 { // "a" deduplicated
		t.Errorf("Len = %d, want %d", d.Len(), len(words)-1)
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Error("Lookup of absent value succeeded")
	}
}

// TestSeqInjective checks that distinct sequences (including tricky
// length-boundary cases) get distinct keys and equal sequences equal keys.
func TestSeqInjective(t *testing.T) {
	d := NewDict()
	seqs := [][]string{
		{}, {"a"}, {"b"}, {"a", "b"}, {"b", "a"}, {"ab"}, {"a", "b", "c"},
		{"ab", "c"}, {"a", "bc"}, {"", ""}, {""}, {"a", ""}, {"", "a"},
		{"x\x1fy"}, {"x", "y"},
	}
	keys := make(map[uint32]int)
	for i, s := range seqs {
		ids := make([]uint32, len(s))
		for j, v := range s {
			ids[j] = d.Intern(v)
		}
		k := d.Seq(ids)
		if prev, dup := keys[k]; dup {
			t.Errorf("sequences %v and %v share key %d", seqs[prev], s, k)
		}
		keys[k] = i
		// Same sequence again → same key, and LookupSeq finds it.
		if k2 := d.Seq(ids); k2 != k {
			t.Errorf("Seq(%v) unstable: %d then %d", s, k, k2)
		}
		if k2, ok := d.LookupSeq(ids); !ok || k2 != k {
			t.Errorf("LookupSeq(%v) = %d,%v want %d,true", s, k2, ok, k)
		}
	}
}

func TestLookupSeqNeverInserts(t *testing.T) {
	d := NewDict()
	a, b := d.Intern("a"), d.Intern("b")
	if _, ok := d.LookupSeq([]uint32{a, b}); ok {
		t.Error("LookupSeq found a sequence that was never minted")
	}
	before := len(d.pairs)
	d.LookupSeq([]uint32{a, b})
	if len(d.pairs) != before {
		t.Error("LookupSeq inserted pair nodes")
	}
}

// TestSeqRandomizedInjective hammers the fold with random sequences and
// verifies key equality exactly tracks sequence equality.
func TestSeqRandomizedInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDict()
	byKey := make(map[uint32]string)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(4) + 1
		ids := make([]uint32, n)
		repr := ""
		for j := range ids {
			v := fmt.Sprintf("v%d", rng.Intn(40))
			ids[j] = d.Intern(v)
			repr += "|" + v
		}
		k := d.Seq(ids)
		if prev, ok := byKey[k]; ok {
			if prev != repr {
				t.Fatalf("collision: %q and %q share key %d", prev, repr, k)
			}
		} else {
			byKey[k] = repr
		}
	}
}
