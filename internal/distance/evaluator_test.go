package distance

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"mlnclean/internal/intern"
)

// randomValues generates a mixed ASCII/UTF-8 value pool.
func randomValues(rng *rand.Rand, n int) []string {
	pool := []string{
		"", "a", "birmingham", "BIRMINGHAM", "b'ham", "münchen", "東京都",
		"нижний новгород", "saint-étienne", "x\x1fy", "2567688400",
	}
	out := make([]string, 0, n)
	out = append(out, pool...)
	letters := []rune("abcdefgßüé東λ москва0123456789")
	for len(out) < n {
		l := rng.Intn(12)
		r := make([]rune, l)
		for i := range r {
			r[i] = letters[rng.Intn(len(letters))]
		}
		out = append(out, string(r))
	}
	return out
}

// TestMinDistinctIsALowerBound: MinDistinct(id) never exceeds the distance
// from id to any other interned value — including values that differ as
// strings but decode to the same runes — and is positive for every
// Levenshtein value that decodes losslessly, which is what AGP prunes on.
func TestMinDistinctIsALowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := append(randomValues(rng, 40), "\xff", "\xfe", "\ufffd", "a\xffb", "a\xfeb", "a\ufffdb")
	for _, m := range []Metric{Levenshtein{}, Cosine{}} {
		t.Run(m.Name(), func(t *testing.T) {
			dict := intern.NewDict()
			ids := make([]uint32, len(vals))
			for i, v := range vals {
				ids[i] = dict.Intern(v)
			}
			e := NewEvaluator(m, dict)
			for i, a := range ids {
				lb := e.MinDistinct(a)
				_, lev := m.(Levenshtein)
				if want := lev && !strings.ContainsRune(vals[i], '\ufffd'); (lb > 0) != want {
					t.Errorf("MinDistinct(%q) = %v, want positive: %v", vals[i], lb, want)
				}
				for j, b := range ids {
					if a != b && e.Pair(a, b) < lb {
						t.Errorf("Pair(%q,%q) = %v under MinDistinct %v", vals[i], vals[j], e.Pair(a, b), lb)
					}
				}
			}
		})
	}
}

// TestEvaluatorMatchesMetric asserts the interned evaluator agrees exactly
// with the reference implementations and with the Metric's own Distance —
// bit for bit, including bounded early exits staying on the correct side of
// the bound.
func TestEvaluatorMatchesMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := randomValues(rng, 60)
	for _, m := range []Metric{Levenshtein{}, Cosine{}} {
		t.Run(m.Name(), func(t *testing.T) {
			dict := intern.NewDict()
			ids := make([]uint32, len(vals))
			for i, v := range vals {
				ids[i] = dict.Intern(v)
			}
			e := NewEvaluator(m, dict)
			for i := range vals {
				for j := range vals {
					want := refDistance(m, vals[i], vals[j])
					if got := m.Distance(vals[i], vals[j]); got != want {
						t.Fatalf("%s.Distance(%q,%q) = %v, want %v", m.Name(), vals[i], vals[j], got, want)
					}
					if got := e.Pair(ids[i], ids[j]); got != want {
						t.Fatalf("Pair(%q,%q) = %v, want %v", vals[i], vals[j], got, want)
					}
					if got := e.Pair(ids[j], ids[i]); got != want {
						t.Fatalf("Pair(%q,%q) asymmetric", vals[j], vals[i])
					}
				}
			}
			// PairBounded on a fresh evaluator (so ASCII values meet their
			// non-ASCII partners unprepared, in either order) is exact up to
			// its bound and past it otherwise.
			fresh := NewEvaluator(m, dict)
			for i := range vals {
				for j := range vals {
					bound := float64(rng.Intn(6))
					got, want := fresh.PairBounded(ids[i], ids[j], bound), refDistance(m, vals[i], vals[j])
					if want <= bound && got != want || want > bound && got <= bound {
						t.Fatalf("PairBounded(%q,%q,%v) = %v, exact %v", vals[i], vals[j], bound, got, want)
					}
				}
			}
		})
	}
}

// TestEvaluatorSlotSize: the per-ID table is grown to the highest ID an
// evaluator touches, so its slot stays at 16 bytes and an evaluator that
// only ever prepares one high ID allocates the table and little else.
func TestEvaluatorSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(idInfo{}); got > 16 {
		t.Errorf("idInfo is %d bytes, want ≤ 16", got)
	}
	const high = 50_000
	dict := intern.NewDict()
	for i := 0; i <= high; i++ {
		dict.Intern(fmt.Sprintf("v%d", i))
	}
	for _, m := range []Metric{Levenshtein{}, Cosine{}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := NewEvaluator(m, dict)
		d := e.Pair(high, high-1)
		runtime.ReadMemStats(&after)
		if want := m.Distance(dict.Value(high), dict.Value(high-1)); d != want {
			t.Errorf("%s: Pair = %v, want %v", m.Name(), d, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: preparing ID %d allocated %d bytes, want ≤ 1 MiB", m.Name(), high, got)
		}
	}
}

// TestEvaluatorValuesBounded cross-checks the slice distance (with bounds)
// against the reference sum over strings on random γ pairs of one width,
// from one to four attributes.
func TestEvaluatorValuesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := randomValues(rng, 40)
	for _, m := range []Metric{Levenshtein{}, Cosine{}} {
		t.Run(m.Name(), func(t *testing.T) {
			dict := intern.NewDict()
			ids := make([]uint32, len(vals))
			for i, v := range vals {
				ids[i] = dict.Intern(v)
			}
			e := NewEvaluator(m, dict)
			for trial := 0; trial < 400; trial++ {
				n := rng.Intn(4) + 1
				a, b := make([]string, n), make([]string, n)
				ai, bi := make([]uint32, n), make([]uint32, n)
				var exact float64
				for i := range n {
					x, y := rng.Intn(len(vals)), rng.Intn(len(vals))
					a[i], ai[i], b[i], bi[i] = vals[x], ids[x], vals[y], ids[y]
					exact += refDistance(m, a[i], b[i])
				}
				if got := e.ValuesBounded(ai, bi, math.Inf(1)); got != exact {
					t.Fatalf("unbounded ValuesBounded(%v,%v) = %v, want %v", a, b, got, exact)
				}
				bound := float64(rng.Intn(10))
				got := e.ValuesBounded(ai, bi, bound)
				if exact <= bound {
					if got != exact {
						t.Fatalf("ValuesBounded(%v,%v,%v) = %v, want exact %v", a, b, bound, got, exact)
					}
				} else if got <= bound {
					t.Fatalf("ValuesBounded(%v,%v,%v) = %v ≤ bound but exact is %v", a, b, bound, got, exact)
				}
			}
		})
	}
}

func TestEvaluatorRuneLen(t *testing.T) {
	dict := intern.NewDict()
	e := NewEvaluator(Levenshtein{}, dict)
	for _, tc := range []struct {
		s string
		n int
	}{{"", 0}, {"abc", 3}, {"東京都", 3}, {"münchen", 7}} {
		if got := e.RuneLen(dict.Intern(tc.s)); got != tc.n {
			t.Errorf("RuneLen(%q) = %d, want %d", tc.s, got, tc.n)
		}
	}
}

// TestEvaluatorLateInterning: IDs interned after the evaluator was created
// (the distributed gather interns wire pieces lazily) must still resolve.
func TestEvaluatorLateInterning(t *testing.T) {
	dict := intern.NewDict()
	e := NewEvaluator(Levenshtein{}, dict)
	a := dict.Intern("alpha")
	if d := e.Pair(a, a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	b := dict.Intern("alphq")
	if d := e.Pair(a, b); d != 1 {
		t.Fatalf("late-interned pair distance = %v, want 1", d)
	}
}

// TestBoundedAllocFree asserts the evaluator's kernel scratch keeps exact
// and bounded edit distance allocation-free in steady state, on the
// bit-parallel, byte-DP and rune paths alike.
func TestBoundedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dict := intern.NewDict()
	ids := internAll(dict, "saint-étienne hospital", "saint-etienne hospitals",
		"BIRMINGHAM", "BIRMINGHAN", strings.Repeat("ab", 40), strings.Repeat("ba", 41))
	e := NewEvaluator(Levenshtein{}, dict)
	run := func() {
		for i := 0; i < len(ids); i += 2 {
			e.Pair(ids[i], ids[i+1])
			e.PairBounded(ids[i], ids[i+1], 2)
		}
	}
	run() // warm: per-ID forms, DP rows
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Errorf("edit distance allocates %v per run, want 0", allocs)
	}
}

// pairFixture interns n distinct ASCII values, enough for n(n−1)/2 pairs.
func pairFixture(n int) (*intern.Dict, []uint32) {
	dict := intern.NewDict()
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = dict.Intern(fmt.Sprintf("value-%04d", i*7%n))
	}
	return dict, ids
}

// TestEvaluatorReuseIsExact: an evaluator kept across blocks returns bit for
// bit the distances a fresh one does, and agrees with it on which side of a
// bound a pair falls. The stage-I workers and the delta engine keep theirs
// for their whole lifetime, so block-to-block reuse must not change a
// comparison.
func TestEvaluatorReuseIsExact(t *testing.T) {
	dict, ids := pairFixture(400)
	for _, m := range []Metric{Levenshtein{}, Cosine{}} {
		t.Run(m.Name(), func(t *testing.T) {
			warm := NewEvaluator(m, dict)
			for i := 1; i < len(ids); i++ {
				warm.Pair(ids[0], ids[i])
				warm.PairBounded(ids[i-1], ids[i], 3)
			}
			bits := math.Float64bits
			for i := 1; i < len(ids); i++ {
				a, b := ids[:i], ids[1:i+1]
				if got, want := warm.Pair(ids[0], ids[i]), NewEvaluator(m, dict).Pair(ids[0], ids[i]); bits(got) != bits(want) {
					t.Fatalf("Pair(%d,%d): reused %v, fresh %v", ids[0], ids[i], got, want)
				}
				got, want := warm.ValuesBounded(a, b, math.Inf(1)), NewEvaluator(m, dict).ValuesBounded(a, b, math.Inf(1))
				if bits(got) != bits(want) {
					t.Fatalf("ValuesBounded at %d: reused %v, fresh %v", i, got, want)
				}
				bound := float64(i % 5)
				gotB, wantB := warm.PairBounded(ids[i-1], ids[i], bound), NewEvaluator(m, dict).PairBounded(ids[i-1], ids[i], bound)
				if (gotB <= bound) != (wantB <= bound) || (wantB <= bound && bits(gotB) != bits(wantB)) {
					t.Fatalf("PairBounded(%d,%d,%v): reused %v, fresh %v", ids[i-1], ids[i], bound, gotB, wantB)
				}
			}
		})
	}
}

// TestWarmEvaluatorAllocFree: reusing an evaluator across blocks allocates
// nothing once the blocks' values are prepared.
func TestWarmEvaluatorAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful unraced")
	}
	dict, ids := pairFixture(64)
	ev := NewEvaluator(Levenshtein{}, dict)
	block := func() {
		for i := 1; i < len(ids); i++ {
			ev.Pair(ids[0], ids[i])
		}
	}
	block()
	if allocs := testing.AllocsPerRun(50, block); allocs > 0 {
		t.Errorf("a warm evaluator allocates %.1f per block, want 0", allocs)
	}
}

// TestEvaluatorRetainsNoPairs: an evaluator keeps nothing per pair it
// measures. Once its values are prepared, a first pass over 179,700
// distinct pairs, through Pair and PairBounded alike, allocates nothing and
// leaves the heap where it was (up to a few objects the runtime allocates
// on its own meanwhile): a stage-I worker or a serving session keeps its
// evaluators for its lifetime, so any per-pair state would grow with every
// pair they ever measure, or sit at its cap.
func TestEvaluatorRetainsNoPairs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful unraced")
	}
	dict, ids := pairFixture(600)
	ev := NewEvaluator(Levenshtein{}, dict)
	for _, id := range ids[1:] {
		ev.Pair(ids[0], id) // prepare every value
	}
	pairs := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if pairs++; pairs%2 == 0 {
				ev.Pair(ids[i], ids[j])
			} else {
				ev.PairBounded(ids[i], ids[j], 20)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ev)
	if allocs := after.Mallocs - before.Mallocs; allocs > 16 {
		t.Errorf("measuring %d pairs allocated %d objects, want none", pairs, allocs)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 64<<10 {
		t.Errorf("measuring %d pairs left the heap %d bytes larger, want ≤ 64 KiB", pairs, grown)
	}
}

func BenchmarkEvaluatorValuesBounded(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := randomValues(rng, 64)
	dict := intern.NewDict()
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		ids[i] = dict.Intern(v)
	}
	for _, m := range []Metric{Levenshtein{}, Cosine{}} {
		b.Run(m.Name(), func(b *testing.B) {
			e := NewEvaluator(m, dict)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % (len(ids) - 3)
				e.ValuesBounded(ids[k:k+3], ids[k+1:k+4], 6)
			}
		})
	}
}

func FuzzEditDistanceBoundedConsistent(f *testing.F) {
	f.Add("abc", "abd", 5)
	f.Add("", "xyz", 1)
	f.Add("münchen", "munchen", 2)
	// The bit-parallel kernel's edges: pattern lengths 1, 63, 64 and 65
	// (the first on the row DP) at bounds 0, 1 and len, and pairs with one
	// non-ASCII operand, which must fall back to the rune DP.
	for _, n := range []int{1, 63, 64, 65} {
		a := strings.Repeat("ab", n)[:n]
		b := "b" + a[1:]
		for _, bound := range []int{0, 1, n} {
			f.Add(a, b, bound)
			f.Add(a, a+"x", bound)
			f.Add(a[:n-1]+"é", a, bound)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string, bound int) {
		if bound < 0 || bound > 160 || len(a) > 160 || len(b) > 160 {
			t.Skip()
		}
		checkEditKernels(t, a, b, bound)
	})
}

func ExampleEvaluator() {
	dict := intern.NewDict()
	x := dict.Intern("BOAZ")
	y := dict.Intern("BOAS")
	e := NewEvaluator(Levenshtein{}, dict)
	fmt.Println(e.Pair(x, y))
	// Output: 1
}
