package distance

import (
	"fmt"
	"testing"

	"mlnclean/internal/intern"
)

func poolFixture(n int) (*intern.Dict, []uint32) {
	dict := intern.NewDict()
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = dict.Intern(fmt.Sprintf("value-%04d", i*7%n))
	}
	return dict, ids
}

// TestPoolReuseIsExact: a recycled evaluator returns exactly the distances a
// fresh one would — the memo carries only exact results, so block-to-block
// reuse cannot change any comparison.
func TestPoolReuseIsExact(t *testing.T) {
	dict, ids := poolFixture(64)
	pool := NewPool(Levenshtein{}, dict)

	ev1 := pool.Get()
	for i := 1; i < len(ids); i++ {
		ev1.Pair(ids[0], ids[i])
		ev1.PairBounded(ids[i-1], ids[i], 3)
	}
	pool.Put(ev1)

	ev2 := pool.Get()
	fresh := NewEvaluator(Levenshtein{}, dict)
	for i := 1; i < len(ids); i++ {
		if got, want := ev2.Pair(ids[0], ids[i]), fresh.Pair(ids[0], ids[i]); got != want {
			t.Fatalf("pair(%d,%d): pooled %v, fresh %v", ids[0], ids[i], got, want)
		}
		if got, want := ev2.Values(ids[:i], ids[1:i+1]), fresh.Values(ids[:i], ids[1:i+1]); got != want {
			t.Fatalf("values at %d: pooled %v, fresh %v", i, got, want)
		}
	}
	// Under the race detector sync.Pool drops Puts at random, so the second
	// Get may miss; the exactness checks above hold either way.
	if raceEnabled {
		return
	}
	hits, misses := pool.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestPoolRejectsForeignEvaluator: an evaluator over another dictionary must
// never enter the pool (its memo would decode IDs against the wrong values).
func TestPoolRejectsForeignEvaluator(t *testing.T) {
	dict, ids := poolFixture(8)
	other := intern.NewDict()
	other.Intern("unrelated")
	pool := NewPool(Levenshtein{}, dict)
	pool.Put(NewEvaluator(Levenshtein{}, other))
	ev := pool.Get()
	if ev.dict != dict {
		t.Fatal("pool handed out a foreign-dictionary evaluator")
	}
	_ = ev.Pair(ids[0], ids[1])
}

// TestPooledReuseAllocsRegression pins the satellite fix: reusing a pooled
// evaluator across "blocks" whose pairs are already memoized must not
// allocate per block (a fresh evaluator per block pays a map + info table +
// scratch every time).
func TestPooledReuseAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful unraced")
	}
	dict, ids := poolFixture(64)
	pool := NewPool(Levenshtein{}, dict)
	warm := pool.Get()
	for i := 1; i < len(ids); i++ {
		warm.Pair(ids[0], ids[i])
	}
	pool.Put(warm)

	allocs := testing.AllocsPerRun(50, func() {
		ev := pool.Get()
		for i := 1; i < len(ids); i++ {
			ev.Pair(ids[0], ids[i])
		}
		pool.Put(ev)
	})
	// sync.Pool itself may allocate a pool-local shard on first use per P;
	// allow a small constant, but a per-pair or per-block map rebuild (the
	// old behavior: ~4 allocs for the map alone, more as it grows) must fail.
	if allocs > 2 {
		t.Fatalf("pooled reuse allocates %.1f allocs per block, want <= 2", allocs)
	}
}

// BenchmarkEvaluatorPerBlock contrasts the old per-block construction with
// pooled reuse; run with -benchmem to see the allocation difference CI's
// micro-bench smoke records.
func BenchmarkEvaluatorPerBlock(b *testing.B) {
	dict, ids := poolFixture(256)
	work := func(ev *Evaluator) {
		for i := 1; i < len(ids); i++ {
			ev.PairBounded(ids[i-1], ids[i], 4)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			work(NewEvaluator(Levenshtein{}, dict))
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pool := NewPool(Levenshtein{}, dict)
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			ev := pool.Get()
			work(ev)
			pool.Put(ev)
		}
	})
}
