package intern

import (
	"fmt"
	"math/rand"
	"sync"
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

// forkParent is a dictionary with values and minted pairs, as a run's is
// once its rows are encoded.
func forkParent() (*Dict, []uint32) {
	d := NewDict()
	ids := make([]uint32, 50)
	for i := range ids {
		ids[i] = d.Intern(fmt.Sprintf("v%d", i))
	}
	d.Seq(ids[:3])
	return d, ids
}

// TestForkReadsParent: a fork holds every parent value under the parent's
// ID, and finds each by value.
func TestForkReadsParent(t *testing.T) {
	d, ids := forkParent()
	f := d.Fork()
	if f.Len() != d.Len() {
		t.Fatalf("fork Len = %d, parent %d", f.Len(), d.Len())
	}
	for _, id := range ids {
		if f.Value(id) != d.Value(id) {
			t.Errorf("fork Value(%d) = %q, parent %q", id, f.Value(id), d.Value(id))
		}
		if got, ok := f.Lookup(d.Value(id)); !ok || got != id {
			t.Errorf("fork Lookup(%q) = %d,%v want %d,true", d.Value(id), got, ok, id)
		}
	}
}

// TestForkMintsOwnPairs: a fork's sequence keys are injective on its own
// and leave the parent's pair table as it was.
func TestForkMintsOwnPairs(t *testing.T) {
	d, ids := forkParent()
	before := len(d.pairs)
	f := d.Fork()
	keys := make(map[uint32][2]uint32)
	for _, a := range ids[:10] {
		for _, b := range ids[:10] {
			k := f.Seq([]uint32{a, b})
			if prev, dup := keys[k]; dup {
				t.Fatalf("fork keys of %v and %v collide", prev, [2]uint32{a, b})
			}
			keys[k] = [2]uint32{a, b}
			if k2, ok := f.LookupSeq([]uint32{a, b}); !ok || k2 != k {
				t.Fatalf("fork LookupSeq(%d,%d) = %d,%v want %d,true", a, b, k2, ok, k)
			}
		}
	}
	if len(d.pairs) != before {
		t.Errorf("parent pair table grew from %d to %d", before, len(d.pairs))
	}
	if _, ok := d.LookupSeq([]uint32{ids[9], ids[8]}); ok {
		t.Error("a fork-minted sequence is visible in the parent")
	}
}

// TestForkIntern: interning a parent value on a fork returns the parent's
// ID; interning a value the parent lacks panics and adds nothing.
func TestForkIntern(t *testing.T) {
	d, ids := forkParent()
	f := d.Fork()
	if got := f.Intern("v7"); got != ids[7] {
		t.Errorf("fork Intern(v7) = %d, parent ID %d", got, ids[7])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fork Intern of a new value did not panic")
			}
		}()
		f.Intern("new")
	}()
	if _, ok := d.Lookup("new"); ok || d.Len() != len(ids) || f.Len() != len(ids) {
		t.Errorf("a refused Intern grew the values: parent %d, fork %d, want %d", d.Len(), f.Len(), len(ids))
	}
}

// TestForkConcurrent: k forks of one dictionary read its values and mint
// keys at once (run under -race), and each fork's keys still tell its
// sequences apart.
func TestForkConcurrent(t *testing.T) {
	d, ids := forkParent()
	const k = 4
	var wg sync.WaitGroup
	errs := make([]error, k)
	for w := range k {
		f := d.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			seen := make(map[uint32]string)
			for range 2000 {
				seq := make([]uint32, rng.Intn(3)+1)
				repr := ""
				for j := range seq {
					seq[j] = f.Intern(d.Value(ids[rng.Intn(len(ids))]))
					repr += "|" + f.Value(seq[j])
				}
				key := f.Seq(seq)
				if prev, ok := seen[key]; ok && prev != repr {
					errs[w] = fmt.Errorf("fork %d: %q and %q share key %d", w, prev, repr, key)
					return
				}
				seen[key] = repr
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
