package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// refDedup is the duplicate elimination this package shipped before
// dedupRows, kept as the oracle: every cell re-interned into a fresh
// dictionary, the row reduced to a hash-consed sequence key, a map from key
// to member IDs.
func refDedup(tb *dataset.Table) (*dataset.Table, [][]int) {
	out := dataset.NewTable(tb.Schema)
	dict := intern.NewDict()
	members := make(map[uint32][]int)
	var order []uint32
	var ids []uint32
	for _, t := range tb.Tuples {
		ids = ids[:0]
		for _, v := range t.Values {
			ids = append(ids, dict.Intern(v))
		}
		k := dict.Seq(ids)
		if _, ok := members[k]; !ok {
			order = append(order, k)
			out.Tuples = append(out.Tuples, t)
		}
		members[k] = append(members[k], t.ID)
	}
	var dups [][]int
	for _, k := range order {
		if ids := members[k]; len(ids) > 1 {
			dups = append(dups, ids)
		}
	}
	return out, dups
}

// dedupTable draws a table built to stress row identity: a tiny alphabet
// holding the 0x1f key separator and the empty string (so joined keys of
// distinct rows collide), interleaved copies of earlier rows, ragged rows,
// and — by shape — all-identical and duplicate-free tables. Tuple IDs are
// ascending with gaps.
func dedupTable(rng *rand.Rand) *dataset.Table {
	width := 1 + rng.Intn(4)
	attrs := make([]string, width)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	tb := dataset.NewTable(dataset.MustSchema(attrs...))
	alphabet := []string{"", "\x1f", "a", "a\x1f", "\x1fa", "b", "a\x1fb", "ab"}
	n := rng.Intn(40)
	shape := rng.Intn(5) // 0: all identical, 1: no duplicates, else mixed
	id := 0
	for i := 0; i < n; i++ {
		id += 1 + rng.Intn(3)
		var vals []string
		switch {
		case shape == 0 && i > 0:
			vals = tb.Tuples[0].Values
		case shape == 1:
			vals = make([]string, width)
			for j := range vals {
				vals[j] = fmt.Sprintf("%d\x1f%d", i, j)
			}
		case i > 0 && rng.Intn(3) == 0:
			vals = tb.Tuples[rng.Intn(i)].Values
		default:
			w := width
			if rng.Intn(6) == 0 {
				w = rng.Intn(width + 1) // ragged, down to no cells at all
			}
			vals = make([]string, w)
			for j := range vals {
				vals[j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: id, Values: append([]string(nil), vals...)})
	}
	return tb
}

// encodedRows is tb as StageII sees it after FSCR: rows in one shared
// dictionary, each as long as its tuple.
func encodedRows(tb *dataset.Table) [][]uint32 {
	dict := intern.NewDict()
	dict.Intern("occupies ID 0, which pads short rows")
	rows := dataset.Encode(tb, dict).Rows
	for i, t := range tb.Tuples {
		rows[i] = rows[i][:len(t.Values)]
	}
	return rows
}

// assertDedup checks got against the oracle's answer: the same survivors —
// the very tuples of tb, first of each set in table order — and the same
// duplicate sets, ordered by representative with members in table order.
func assertDedup(t *testing.T, label string, tb, got *dataset.Table, gotDups [][]int) {
	t.Helper()
	want, wantDups := refDedup(tb)
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d survivors, want %d\n%v", label, len(got.Tuples), len(want.Tuples), tb)
	}
	for i := range want.Tuples {
		if got.Tuples[i] != want.Tuples[i] {
			t.Fatalf("%s: survivor %d is tuple %d, want tuple %d\n%v", label, i, got.Tuples[i].ID, want.Tuples[i].ID, tb)
		}
	}
	if !reflect.DeepEqual(gotDups, wantDups) {
		t.Fatalf("%s: duplicate sets %v, want %v\n%v", label, gotDups, wantDups, tb)
	}
}

// TestDedupRowsMatchesReference: over random hostile tables, the string
// entry (Dedup), the ID entry (dedupRows over rows of a shared dictionary)
// and the ID entry under a constant hash — every insert probes every earlier
// survivor, so row equality alone decides — all agree with the oracle.
func TestDedupRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	constant := func([]uint32) uint64 { return 7 }
	for i := 0; i < 1500; i++ {
		tb := dedupTable(rng)
		got, dups := Dedup(tb)
		assertDedup(t, fmt.Sprintf("table %d: Dedup", i), tb, got, dups)
		rows := encodedRows(tb)
		got, dups = dedupRows(tb, rows, hashWords)
		assertDedup(t, fmt.Sprintf("table %d: dedupRows", i), tb, got, dups)
		got, dups = dedupRows(tb, rows, constant)
		assertDedup(t, fmt.Sprintf("table %d: dedupRows, colliding hash", i), tb, got, dups)
	}
}

// TestDedupRowsSetsDoNotShareCapacity: the duplicate sets are carved from
// one array, so appending to one must not write into the next.
func TestDedupRowsSetsDoNotShareCapacity(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A"))
	for _, v := range []string{"x", "y", "x", "y"} {
		tb.MustAppend(v)
	}
	_, dups := Dedup(tb)
	_ = append(dups[0], 99)
	if want := [][]int{{0, 2}, {1, 3}}; !reflect.DeepEqual(dups, want) {
		t.Errorf("duplicate sets after appending to the first = %v, want %v", dups, want)
	}
}

// TestStageIIShortTuple: a tuple is exactly as wide as its schema. Encoded
// rows are schema-wide, so a short tuple's missing cells would read as
// value ID 0, the table's first value: Clean refuses a short tuple, as it
// refuses a wide one, instead of cleaning its padding as data.
func TestStageIIShortTuple(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B", "C"))
	tb.MustAppend("x", "y", "x")
	tb.MustAppend("x", "y", "x")
	tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: 2, Values: []string{"x", "y"}})
	if res, err := Clean(tb, rules.MustParseStrings("FD: A -> B"), Options{Tau: 0, TauSet: true}); err == nil {
		t.Errorf("Clean accepted a tuple narrower than its schema (%d duplicate sets)", len(res.Duplicates))
	}
	// Read as C = k, the short tuple's padding would tie k with z in group
	// (a, b) and win the tie: tuples 2 and 3 would be rewritten to k.
	padded := dataset.NewTable(dataset.MustSchema("A", "B", "C"))
	padded.MustAppend("k", "v", "c1")
	padded.MustAppend("a", "b", "k")
	padded.MustAppend("a", "b", "z")
	padded.MustAppend("a", "b", "z")
	padded.Tuples = append(padded.Tuples, &dataset.Tuple{ID: 4, Values: []string{"a", "b"}})
	if res, err := Clean(padded, rules.MustParseStrings("FD: A, B -> C"), Options{}); err == nil {
		t.Errorf("Clean accepted a tuple narrower than its schema and repaired tuple 2 to %v, tuple 3 to %v",
			res.Repaired.Tuples[2].Values, res.Repaired.Tuples[3].Values)
	}
	// A tuple wider than the schema is an error, not a panic.
	tb.Tuples[2].Values = []string{"x", "y", "x", "w"}
	if _, err := Clean(tb, rules.MustParseStrings("FD: A -> B"), Options{Tau: 0, TauSet: true}); err == nil {
		t.Error("Clean accepted a tuple wider than its schema")
	}
}

// stageIIInputs runs stage I over a CAR table (5 % errors, some injected
// duplicates) repeated `copies` times under fresh tuple IDs, and returns
// StageII's inputs. Repeating a table grows its rows but not its values or
// pieces.
func stageIIInputs(tb testing.TB, rows, copies int) (*dataset.Table, *dataset.Encoded, []*FusionBlock, Options) {
	tb.Helper()
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: rows, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 43})
	if err != nil {
		tb.Fatal(err)
	}
	dup, err := errgen.InjectDuplicates(inj.Dirty, errgen.DuplicateConfig{Rate: 0.05, Seed: 44})
	if err != nil {
		tb.Fatal(err)
	}
	dirty := dataset.NewTable(dup.Dirty.Schema)
	for c := 0; c < copies; c++ {
		for _, t := range dup.Dirty.Tuples {
			dirty.MustAppend(t.Values...)
		}
	}
	opts := Options{Tau: 2, Parallelism: 1}.withDefaults()
	ix := stagedIndex(tb, dirty, rs, opts)
	return dirty, ix.Encoded(), FusionBlocksFromIndex(ix), opts
}

// TestStageIIAllocs: stage II allocates per table (the repaired table's
// tuple and row slices, the row set, append growth), per piece (the fusion
// plan's candidate postings) and per slab of changed tuples — not per row.
// Four copies of a table hold four times the rows; what StageII allocates
// beyond its plan must stay within the changed tuples plus a constant. In
// bytes, it must stay below the dirty table's values (rows × width string
// headers), which copying the table alone would exceed: stage II copies only
// the tuples fusion changes.
func TestStageIIAllocs(t *testing.T) {
	const fixed = 100
	for _, copies := range []int{1, 4} {
		dirty, enc, blocks, opts := stageIIInputs(t, 1500, copies)
		repaired, clean, _ := StageII(dirty, enc, blocks, opts, new(Stats))
		if clean.Len() == dirty.Len() {
			t.Fatal("no duplicates removed: the table does not exercise dedup")
		}
		changed := 0
		for i, tu := range repaired.Tuples {
			if !reflect.DeepEqual(tu.Values, dirty.Tuples[i].Values) {
				changed++
			}
		}
		if changed == 0 {
			t.Fatal("fusion changed no tuple: the table does not exercise FSCR")
		}
		total := testing.AllocsPerRun(5, func() { StageII(dirty, enc, blocks, opts, new(Stats)) })
		plan := testing.AllocsPerRun(5, func() { planFusion(enc.Dict, dirty, enc.Rows, blocks, opts) })
		t.Logf("%d rows, %d changed tuples: %.0f allocations, %.0f of them the plan's", dirty.Len(), changed, total, plan)
		if total-plan > float64(changed+fixed) {
			t.Errorf("%d rows: StageII allocates %.0f times beyond its plan, want ≤ %d changed tuples + %d",
				dirty.Len(), total-plan, changed, fixed)
		}
		if changed+fixed > dirty.Len()/2 {
			t.Errorf("bound of %d is no tighter than the table's %d rows: the test proves nothing", changed+fixed, dirty.Len())
		}
		beyond := allocBytes(func() { StageII(dirty, enc, blocks, opts, new(Stats)) }) -
			allocBytes(func() { planFusion(enc.Dict, dirty, enc.Rows, blocks, opts) })
		values := dirty.Len() * dirty.Schema.Len() * int(unsafe.Sizeof(""))
		t.Logf("%d rows: %.0f bytes beyond the plan, the table's values take %d", dirty.Len(), beyond, values)
		if beyond >= float64(values) {
			t.Errorf("%d rows: StageII allocates %.0f bytes beyond its plan, want below the table's %d value bytes",
				dirty.Len(), beyond, values)
		}
	}
}

// allocBytes is the heap bytes one call of f allocates, averaged over a few
// calls after a warm-up one.
func allocBytes(f func()) float64 {
	const runs = 3
	f() // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// cleanAliasesRepaired asserts the Result contract: every tuple of Clean is
// the tuple of Repaired with the same ID — the same object, not a copy.
func cleanAliasesRepaired(t *testing.T, label string, res *Result) {
	t.Helper()
	byID := make(map[int]*dataset.Tuple, res.Repaired.Len())
	for _, tu := range res.Repaired.Tuples {
		byID[tu.ID] = tu
	}
	if res.Clean.Len() == 0 {
		t.Fatalf("%s: empty clean table", label)
	}
	for i, tu := range res.Clean.Tuples {
		if byID[tu.ID] != tu {
			t.Fatalf("%s: Clean.Tuples[%d] (tuple %d) is not Repaired's tuple", label, i, tu.ID)
		}
	}
}

// TestCleanAliasesRepaired covers the stand-alone and delta results, with
// and without KeepDuplicates (internal/distributed has the executor's).
func TestCleanAliasesRepaired(t *testing.T) {
	dirty, rs := carDirty(t, 200, 5)
	dup, err := errgen.InjectDuplicates(dirty, errgen.DuplicateConfig{Rate: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []bool{false, true} {
		opts := Options{KeepDuplicates: keep}
		res, err := Clean(dup.Dirty, rs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if kept := res.Clean.Len() == res.Repaired.Len(); kept != keep {
			t.Fatalf("keep=%v: %d clean of %d repaired tuples", keep, res.Clean.Len(), res.Repaired.Len())
		}
		cleanAliasesRepaired(t, fmt.Sprintf("solo, keep=%v", keep), res)

		eng, err := NewDeltaCleaner(dirty.Schema, rs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = eng.Load(dup.Dirty); err != nil {
			t.Fatal(err)
		}
		cleanAliasesRepaired(t, fmt.Sprintf("delta load, keep=%v", keep), res)
		vals := append([]string(nil), dup.Dirty.Tuples[0].Values...)
		vals[0] += "~"
		if res, _, err = eng.Apply([]Mutation{{Op: DeltaPut, Row: dup.Dirty.Tuples[0].ID, Values: vals}}); err != nil {
			t.Fatal(err)
		}
		cleanAliasesRepaired(t, fmt.Sprintf("delta apply, keep=%v", keep), res)
	}
}

// TestDeltaDedupStateBounded: a long-lived engine fed a fresh typo per
// mutation, with duplicate rows inserted and deleted along the way, keeps
// exactly one fused ID row and one duplicate-index entry per live tuple,
// read keys for exactly the live conflicted tuples, and a domain count for
// exactly the values the live rows hold, while every result stays identical
// to a from-scratch clean.
func TestDeltaDedupStateBounded(t *testing.T) {
	dirty, rs := carDirty(t, 120, 13)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(dirty); err != nil {
		t.Fatal(err)
	}
	rows := make(map[int][]string, dirty.Len())
	for _, tp := range dirty.Tuples {
		rows[tp.ID] = append([]string(nil), tp.Values...)
	}
	width := dirty.Schema.Len()
	modelPos := dirty.Schema.MustIndex("Model")
	rng := rand.New(rand.NewSource(13))
	next := dirty.Len()
	sawDups := false
	for step := 0; step < 200; step++ {
		id := dirty.Tuples[rng.Intn(dirty.Len())].ID
		var mut Mutation
		switch {
		case step%10 == 3: // a copy of a live row under a fresh ID
			mut = Mutation{Op: DeltaPut, Row: next, Values: append([]string(nil), rows[id]...)}
			rows[next] = mut.Values
			next++
		case step%10 == 7 && next > dirty.Len(): // drop the latest copy
			next--
			mut = Mutation{Op: DeltaDelete, Row: next}
			delete(rows, next)
		default: // a typo no earlier step has produced
			vals := append([]string(nil), rows[id]...)
			vals[modelPos] = fmt.Sprintf("%s~%d", vals[modelPos], step)
			mut = Mutation{Op: DeltaPut, Row: id, Values: vals}
			rows[id] = vals
		}
		res, _, err := eng.Apply([]Mutation{mut})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if n := len(eng.tuples); n != len(rows) || len(eng.fusedTuples) != n || len(eng.fusedRows) != n || len(eng.fuseRes) != n {
			t.Fatalf("step %d: engine caches %d tuples, %d fused tuples, %d fused rows and %d outcomes for %d live ones",
				step, n, len(eng.fusedTuples), len(eng.fusedRows), len(eng.fuseRes), len(rows))
		}
		for i, row := range eng.fusedRows {
			id := eng.tuples[i].ID
			if _, live := rows[id]; !live || eng.fusedTuples[i].ID != id || len(row) != width {
				t.Fatalf("step %d: position %d: tuple %d live=%v, fused tuple %d, fused row holds %d IDs, want %d",
					step, i, id, live, eng.fusedTuples[i].ID, len(row), width)
			}
		}
		conflicted := 0
		for i, r := range eng.fuseRes {
			if _, ok := eng.reads[eng.ids[i]]; ok != (r.conflicted != 0) {
				t.Fatalf("step %d: tuple %d conflicted=%d holds read keys=%v", step, eng.ids[i], r.conflicted, ok)
			}
			conflicted += int(r.conflicted)
		}
		if len(eng.reads) != conflicted {
			t.Fatalf("step %d: read keys held for %d tuples, %d live ones are conflicted", step, len(eng.reads), conflicted)
		}
		if n := eng.dups.entries(); n != len(rows) {
			t.Fatalf("step %d: the duplicate index files %d tuples, %d are live", step, n, len(rows))
		}
		for p, counts := range eng.plan.counts {
			if counts == nil {
				continue
			}
			want := make(map[uint32]int32)
			for _, row := range eng.encRows {
				want[row[p]]++
			}
			if !maps.Equal(counts, want) {
				t.Fatalf("step %d: position %d counts %d values, the live rows hold %d", step, p, len(counts), len(want))
			}
		}
		sawDups = sawDups || len(res.Duplicates) > 0
		if step%20 == 19 {
			assertParity(t, fmt.Sprintf("step %d", step), res, blocksOf(eng, nil), refTable(dirty.Schema, rows), rs, Options{})
		}
	}
	if !sawDups {
		t.Error("no result ever held a duplicate set: the sequence does not exercise dedup")
	}
}
