package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mlnclean/internal/dataset"
	"mlnclean/internal/rules"
)

// wideShapes are tables under FD: A -> B whose stage I leaves one RSC group
// holding a piece per row: the degenerate input a plausible rule such as
// FD: State -> City meets.
var wideShapes = map[string]func(i int) (a, b string){
	// One reason value, every result distinct and a few edits from the next.
	"constant-reason": func(i int) (string, string) { return "x", fmt.Sprintf("v%05d", i) },
	// Distinct single CJK runes: every pair is at distance 1, so every pair
	// fits the running bound and is measured exactly.
	"equidistant": func(i int) (string, string) { return "x", string(rune(0x4E00 + i)) },
	// Results over 64 bytes, which take the edit-distance DP kernel rather
	// than the bit-parallel one.
	"long-results": func(i int) (string, string) { return "x", fmt.Sprintf("%05d", i) + strings.Repeat("r", 62) },
	// Every reason value distinct: each group holds one tuple and is
	// abnormal, so AGP promotes one and merges every other into it.
	"distinct-reason": func(i int) (string, string) {
		return fmt.Sprintf("reason-key-%05d", i), fmt.Sprintf("result-%05d", i)
	},
}

// wideTable is the n-row table of one wide shape and its rule.
func wideTable(shape string, n int) (*dataset.Table, []*rules.Rule) {
	row := wideShapes[shape]
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	for i := 0; i < n; i++ {
		a, b := row(i)
		tb.MustAppend(a, b)
	}
	return tb, rules.MustParseStrings("FD: A -> B")
}

// TestWideGroupsParity: on every wide shape the whole table collapses into
// one RSC group, and the delta engine's Load is byte-identical to Clean.
func TestWideGroupsParity(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 200
	}
	for shape := range wideShapes {
		t.Run(shape, func(t *testing.T) {
			tb, rs := wideTable(shape, n)
			eng, err := NewDeltaCleaner(tb.Schema, rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Load(tb)
			if err != nil {
				t.Fatal(err)
			}
			assertParity(t, shape, res, blocksOf(eng, nil), tb, rs, Options{})
			if st := res.Stats; st.RSCRepairs != n-1 {
				t.Errorf("%d RSC repairs, want %d: the shape is not one group of %d pieces", st.RSCRepairs, n-1, n)
			}
		})
	}
}

// TestWideGroupsAllocLinear: RSC's winner needs each piece's nearest
// neighbour, not the group's n×n distance matrix, and the evaluator keeps
// nothing per pair, so the bytes a clean allocates grow with the pieces, not
// with their pairs: 4× the rows may cost at most about 6× the bytes (the n×n
// matrix and an uncapped pair memo cost about 16×). CI runs this under a
// GOMEMLIMIT that the quadratic version overruns at n = 4,000.
func TestWideGroupsAllocLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("cleans 4,000-piece groups")
	}
	for _, shape := range []string{"constant-reason", "equidistant"} {
		t.Run(shape, func(t *testing.T) {
			alloc := func(n int) uint64 {
				tb, rs := wideTable(shape, n)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := Clean(tb, rs, Options{Parallelism: 2}); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			small, large := alloc(1000), alloc(4000)
			t.Logf("allocated %d B at n = 1,000, %d B at n = 4,000 (%.1f×)", small, large, float64(large)/float64(small))
			if large > 6*small {
				t.Errorf("allocation grew %.1f× from n = 1,000 to 4,000, want ≤ 6×", float64(large)/float64(small))
			}
		})
	}
}
