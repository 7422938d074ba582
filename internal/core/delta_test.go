package core

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/index"
	"mlnclean/internal/obs"
	"mlnclean/internal/rules"
)

// The correctness anchor of incremental re-cleaning: after any mutation
// sequence, the DeltaCleaner's result must be byte-identical to a full
// from-scratch Clean of the same table — tables, duplicates, stats, and the
// piece-weight vector repair attribution reads.

// deltaSeeds mirrors the WAL and server chaos suites' seed knob so CI's
// chaos job widens the randomized mutation grid with CHAOS_SEEDS.
func deltaSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 7}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// carDirty builds a small seeded dirty CAR table.
func carDirty(t *testing.T, rows int, seed int64) (*dataset.Table, []*rules.Rule) {
	t.Helper()
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatalf("datagen.CAR: %v", err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.08, ReplacementRatio: 0.5, Seed: seed + 1})
	if err != nil {
		t.Fatalf("errgen.Inject: %v", err)
	}
	return inj.Dirty, rs
}

// refTable materializes a reference table from an id → values map in the
// engine's canonical ascending-ID order.
func refTable(schema *dataset.Schema, rows map[int][]string) *dataset.Table {
	ids := make([]int, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; tiny n
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	tb := dataset.NewTable(schema)
	for _, id := range ids {
		tb.Tuples = append(tb.Tuples, &dataset.Tuple{
			ID:     id,
			Values: append([]string(nil), rows[id]...),
		})
	}
	return tb
}

func tablesEqual(t *testing.T, label string, got, want *dataset.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.ID != w.ID || !reflect.DeepEqual(g.Values, w.Values) {
			t.Fatalf("%s: tuple %d: got ID=%d %v, want ID=%d %v", label, i, g.ID, g.Values, w.ID, w.Values)
		}
	}
}

// weightMap keys summaries by rule and piece identity so ordering (which the
// planner may vary on the full run) is irrelevant.
func weightMap(ss []index.PieceSummary) map[string]string {
	m := make(map[string]string, len(ss))
	for _, s := range ss {
		m[s.RuleID+"\x1f"+s.Key] = fmt.Sprintf("%d/%x", s.Count, s.Weight)
	}
	return m
}

func assertParity(t *testing.T, label string, got *Result, gotW []index.PieceSummary, tb *dataset.Table, rs []*rules.Rule, opts Options) {
	t.Helper()
	want, err := Clean(tb, rs, opts)
	if err != nil {
		t.Fatalf("%s: full clean: %v", label, err)
	}
	tablesEqual(t, label+": repaired", got.Repaired, want.Repaired)
	tablesEqual(t, label+": clean", got.Clean, want.Clean)
	if !reflect.DeepEqual(got.Duplicates, want.Duplicates) {
		t.Fatalf("%s: duplicates: got %v, want %v", label, got.Duplicates, want.Duplicates)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats: got %+v, want %+v", label, got.Stats, want.Stats)
	}
	if gotW != nil {
		gw, ww := weightMap(gotW), weightMap(want.Index.PieceSummaries())
		if !reflect.DeepEqual(gw, ww) {
			t.Fatalf("%s: piece weights diverge:\ngot  %v\nwant %v", label, gw, ww)
		}
	}
}

// TestDeltaLoadParity: seeding the engine is itself a full clean.
func TestDeltaLoadParity(t *testing.T) {
	dirty, rs := carDirty(t, 150, 3)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Load(dirty)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "load", res, eng.Weights(), dirty, rs, Options{})
}

// TestDeltaMutationSequenceParity is the randomized anchor: K seeded
// inserts, updates, and deletes applied incrementally, each checked
// byte-identical against a from-scratch full re-clean of the same table.
func TestDeltaMutationSequenceParity(t *testing.T) {
	for _, seed := range deltaSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dirty, rs := carDirty(t, 120, seed)
			schema := dirty.Schema
			eng, err := NewDeltaCleaner(schema, rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load(dirty); err != nil {
				t.Fatal(err)
			}

			// Shadow state for the reference full re-clean.
			rows := make(map[int][]string, dirty.Len())
			nextRow := 0
			for _, tp := range dirty.Tuples {
				rows[tp.ID] = append([]string(nil), tp.Values...)
				if tp.ID >= nextRow {
					nextRow = tp.ID + 1
				}
			}
			// Value pool for mutated cells: existing values plus novelties.
			pool := make([]string, 0, 64)
			for _, tp := range dirty.Tuples[:16] {
				pool = append(pool, tp.Values...)
			}

			rng := rand.New(rand.NewSource(seed * 131))
			deleted := []int{}
			liveIDs := func() []int {
				ids := make([]int, 0, len(rows))
				for id := range rows {
					ids = append(ids, id)
				}
				return ids
			}
			pick := func(ids []int) int { return ids[rng.Intn(len(ids))] }
			randVals := func(base []string) []string {
				vals := append([]string(nil), base...)
				col := rng.Intn(schema.Len())
				if rng.Intn(4) == 0 {
					vals[col] = fmt.Sprintf("novel-%d", rng.Intn(50))
				} else {
					vals[col] = pool[rng.Intn(len(pool))]
				}
				return vals
			}

			for step := 0; step < 12; step++ {
				// 1–3 mutations per batch, each kind exercised.
				n := 1 + rng.Intn(3)
				muts := make([]Mutation, 0, n)
				for m := 0; m < n; m++ {
					switch k := rng.Intn(4); {
					case k == 0 && len(rows) > n+1: // delete
						id := pick(liveIDs())
						muts = append(muts, Mutation{Op: DeltaDelete, Row: id})
						delete(rows, id)
						deleted = append(deleted, id)
					case k == 1: // insert (sometimes reviving a deleted ID)
						id := nextRow
						if len(deleted) > 0 && rng.Intn(2) == 0 {
							id = deleted[rng.Intn(len(deleted))]
						} else {
							nextRow++
						}
						vals := randVals(rows[pick(liveIDs())])
						muts = append(muts, Mutation{Op: DeltaPut, Row: id, Values: vals})
						rows[id] = append([]string(nil), vals...)
					default: // update
						id := pick(liveIDs())
						vals := randVals(rows[id])
						muts = append(muts, Mutation{Op: DeltaPut, Row: id, Values: vals})
						rows[id] = append([]string(nil), vals...)
					}
				}
				res, ds, err := eng.Apply(muts)
				if err != nil {
					t.Fatalf("step %d: Apply(%v): %v", step, muts, err)
				}
				if ds.DirtyBlocks+ds.ReusedBlocks != len(rs) {
					t.Fatalf("step %d: blocks don't partition: %+v", step, ds)
				}
				if ds.RefusedTuples+ds.ReusedTuples != eng.Len() {
					t.Fatalf("step %d: tuples don't partition: %+v", step, ds)
				}
				assertParity(t, fmt.Sprintf("step %d", step), res, eng.Weights(),
					refTable(schema, rows), rs, Options{})
			}
		})
	}
}

// TestDeltaReuse pins the point of the tentpole: a single-cell update on an
// attribute only one rule covers rebuilds exactly that rule's block and
// re-fuses only a sliver of the table. The rebuild goes through runBlock
// like any other driver, so it must show up in the stage-I instruments a
// served PUT is diagnosed from: one observation per phase, one per block,
// and no block left counted as in flight.
func TestDeltaReuse(t *testing.T) {
	dirty, rs := carDirty(t, 300, 5)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(dirty); err != nil {
		t.Fatal(err)
	}
	// "Model" appears in exactly one CAR rule (FD: Model, Type -> Make).
	modelPos := dirty.Schema.MustIndex("Model")
	vals := append([]string(nil), dirty.Tuples[10].Values...)
	vals[modelPos] = "delta-model"
	stageHists := map[string]*obs.Histogram{"agp": mStageAGP, "learn": mStageLearn, "rsc": mStageRSC, "block": mBlockSeconds}
	before := make(map[string]int64)
	for name, h := range stageHists {
		before[name] = h.Count()
	}
	_, ds, err := eng.Apply([]Mutation{{Op: DeltaPut, Row: dirty.Tuples[10].ID, Values: vals}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.DirtyBlocks != 1 || ds.ReusedBlocks != len(rs)-1 {
		t.Fatalf("expected exactly one dirty block, got %+v", ds)
	}
	for name, h := range stageHists {
		if got := h.Count() - before[name]; got != 1 {
			t.Errorf("%s histogram advanced by %d observations for one rebuilt block, want 1", name, got)
		}
	}
	if n := mBlocksInFlight.Value(); n != 0 {
		t.Errorf("blocks_inflight = %d after Apply, want 0", n)
	}
	if ds.ReusedTuples == 0 {
		t.Fatalf("expected cached fusion reuse, got %+v", ds)
	}
	if ds.RefusedTuples == 0 {
		t.Fatalf("the mutated tuple itself must re-fuse, got %+v", ds)
	}
}

// TestDeltaValidation: bad batches are rejected atomically, before any state
// changes.
func TestDeltaValidation(t *testing.T) {
	dirty, rs := carDirty(t, 40, 9)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(dirty); err != nil {
		t.Fatal(err)
	}
	wide := make([]string, dirty.Schema.Len()+1)
	cases := []struct {
		name string
		muts []Mutation
	}{
		{"empty", nil},
		{"arity", []Mutation{{Op: DeltaPut, Row: 0, Values: wide}}},
		{"negative-row", []Mutation{{Op: DeltaPut, Row: -1, Values: dirty.Tuples[0].Values}}},
		{"delete-unknown", []Mutation{{Op: DeltaDelete, Row: 99999}}},
		{"delete-reinserted-then-unknown", []Mutation{
			{Op: DeltaDelete, Row: dirty.Tuples[0].ID},
			{Op: DeltaDelete, Row: dirty.Tuples[0].ID},
		}},
	}
	for _, tc := range cases {
		if _, _, err := eng.Apply(tc.muts); err == nil {
			t.Errorf("%s: Apply accepted a bad batch", tc.name)
		}
	}
	// Emptying the table is refused even across a mixed batch.
	var all []Mutation
	for _, tp := range dirty.Tuples {
		all = append(all, Mutation{Op: DeltaDelete, Row: tp.ID})
	}
	if _, _, err := eng.Apply(all); err == nil {
		t.Error("Apply drained the table")
	}
	// State unchanged: a no-op-equivalent re-clean still matches.
	if eng.Len() != dirty.Len() {
		t.Fatalf("failed batches mutated state: %d tuples, want %d", eng.Len(), dirty.Len())
	}
}
