package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

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
	slices.Sort(ids)
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

// weightMap keys every piece's support and weight by rule and piece
// identity, so block, group and piece order are irrelevant.
func weightMap(bs []*index.Block) map[string]string {
	m := make(map[string]string)
	for _, b := range bs {
		for _, p := range b.Pieces() {
			m[b.Rule.ID+"\x1f"+p.Key()] = fmt.Sprintf("%d/%x", p.Count(), p.Weight)
		}
	}
	return m
}

// stagedIndex is a from-scratch stage I of dirty, one stage at a time over
// a built index: its blocks hold one weighted winner per group.
func stagedIndex(tb testing.TB, dirty *dataset.Table, rs []*rules.Rule, opts Options) *index.Index {
	tb.Helper()
	ix, err := index.Build(dirty, rs)
	if err != nil {
		tb.Fatal(err)
	}
	var st Stats
	for _, stage := range []func(context.Context, *index.Index, Options, *Stats) error{StageAGP, StageLearn, StageRSC} {
		if err := stage(context.Background(), ix, opts, &st); err != nil {
			tb.Fatal(err)
		}
	}
	return ix
}

// assertParity requires got to be Clean's Result of tb and, unless gotW is
// nil, the blocks gotW (an engine's, after stage I) to carry the pieces,
// supports and weights a from-scratch stage I of tb learns.
func assertParity(t *testing.T, label string, got *Result, gotW []*index.Block, tb *dataset.Table, rs []*rules.Rule, opts Options) {
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
		gw, ww := weightMap(gotW), weightMap(stagedIndex(t, tb, rs, opts).Blocks)
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
	assertParity(t, "load", res, blocksOf(eng, nil), dirty, rs, Options{})
}

// TestDeltaMutationSequenceParity is the randomized anchor: K seeded
// inserts, updates, and deletes applied incrementally, each checked
// byte-identical against a from-scratch full re-clean of the same table.
// Parity cannot see over-refusing, so each step also bounds how many tuples
// re-fused by the tuple-ID definitions of the re-fusion set: at least the
// tuples the batch put or whose version moved, at most those plus every
// tuple whose last fusion was conflicted. Every tuple left alone must fuse
// afresh to its cached outcome (skippedFusionsMatchFresh).
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
				before := versionFacts(eng)
				var conflicted []int
				for i, r := range eng.fuseRes {
					if r.conflicted != 0 {
						conflicted = append(conflicted, eng.tuples[i].ID)
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
				after := versionFacts(eng)
				if lo, hi := wantRefused(muts, before, after, nil, rows), wantRefused(muts, before, after, conflicted, rows); ds.RefusedTuples < lo || ds.RefusedTuples > hi {
					t.Fatalf("step %d: %d tuples re-fused, want %d to %d", step, ds.RefusedTuples, lo, hi)
				}
				skippedFusionsMatchFresh(t, fmt.Sprintf("step %d", step), eng)
				assertParity(t, fmt.Sprintf("step %d", step), res, blocksOf(eng, nil),
					refTable(schema, rows), rs, Options{})
			}
		})
	}
}

// versionFact is a tuple's version in one block, reduced to what can change
// the fusion of a tuple without a conflict: the piece's identity. (Its
// weight reaches only a conflicted tuple, which wantRefused's upper bound
// counts whole.)
type versionFact struct {
	kid uint32
}

// versionFacts maps, per block, every tuple ID holding a version to its
// facts.
func versionFacts(eng *DeltaCleaner) []map[int]versionFact {
	out := make([]map[int]versionFact, len(eng.plan.blocks))
	for bi, fb := range eng.plan.blocks {
		out[bi] = make(map[int]versionFact)
		for _, p := range fb.Pieces {
			for _, id := range p.TupleIDs {
				out[bi][id] = versionFact{p.KeyID()}
			}
		}
	}
	return out
}

// wantRefused counts the tuples an Apply of muts re-fuses under the rule
// that re-fuses every conflicted tuple, by ID: the live ones the batch put,
// whose version in some block moved (another piece, or a version before or
// after only), or whose previous fusion was conflicted (of the IDs
// conflicted lists; nil gives the count without them).
func wantRefused(muts []Mutation, before, after []map[int]versionFact, conflicted []int, live map[int][]string) int {
	want := make(map[int]bool)
	for _, m := range muts {
		if m.Op == DeltaPut {
			want[m.Row] = true
		}
	}
	for _, id := range conflicted {
		want[id] = true
	}
	for bi := range after {
		for id, v := range after[bi] {
			if ov, ok := before[bi][id]; !ok || ov != v {
				want[id] = true
			}
		}
		for id := range before[bi] {
			if _, ok := after[bi][id]; !ok {
				want[id] = true
			}
		}
	}
	n := 0
	for id := range want {
		if _, ok := live[id]; ok {
			n++
		}
	}
	return n
}

// skippedFusionsMatchFresh is the oracle of the re-fusion rule: after an
// Apply, every tuple it did not re-fuse must fuse, by a new fuser over the
// engine's plan, to its cached outcome and fused row bit for bit. The plan's
// patched parts are first held to what a build from scratch gives: every
// block's candidate index to buildBlockCands over its pieces, and the domain
// sizes to countDomains over the table. It returns how many of the tuples
// it checked were conflicted.
func skippedFusionsMatchFresh(t *testing.T, label string, eng *DeltaCleaner) int {
	t.Helper()
	pl := eng.plan
	fresh := &fusionPlan{dict: pl.dict, compAttrs: pl.compAttrs, domainSize: make([]int, len(pl.domainSize))}
	fresh.countDomains(eng.encRows)
	if !slices.Equal(fresh.domainSize, pl.domainSize) {
		t.Fatalf("%s: domain sizes %v, counted afresh %v", label, pl.domainSize, fresh.domainSize)
	}
	for bi, fb := range pl.blocks {
		got, want := pl.candidates[bi], buildBlockCands(fb, pl.posPerBlock[bi])
		same := len(got.ents) == len(want.ents) && slices.Equal(got.order, want.order) && reflect.DeepEqual(got.byVal, want.byVal)
		for s := range want.ents {
			g, w := got.ents[s], want.ents[s]
			same = same && g.kid == w.kid && math.Float64bits(g.weight) == math.Float64bits(w.weight) && slices.Equal(g.ids, w.ids)
		}
		if !same {
			t.Fatalf("%s: block %d's candidate index is not the one its %d pieces build", label, bi, len(fb.Pieces))
		}
	}
	f := newFuser(pl)
	conflicted := 0
	for i, tp := range eng.tuples {
		if eng.refuse[i] {
			continue
		}
		row := eng.encRows[i]
		res := f.fuse(tp, i, row, nil)
		if res.changes > 0 {
			row = f.appendFused(nil, row)
		}
		if res != eng.fuseRes[i] || !slices.Equal(row, eng.fusedRows[i]) {
			t.Fatalf("%s: tuple %d was not re-fused but fuses afresh to %+v %v, cached %+v %v",
				label, tp.ID, res, row, eng.fuseRes[i], eng.fusedRows[i])
		}
		if res.conflicted != 0 {
			conflicted++
		}
	}
	return conflicted
}

// TestDeltaSkippedFusionsMatchFresh: a conflicted tuple is re-fused only
// when something its search read moved, and every tuple left alone must
// fuse afresh to what it cached (skippedFusionsMatchFresh), through the
// serving mix on CAR and on HAI. Conflicted tuples must be left alone along
// the way, or the rule is not exercised.
func TestDeltaSkippedFusionsMatchFresh(t *testing.T) {
	for _, name := range []string{"CAR", "HAI"} {
		t.Run(name, func(t *testing.T) {
			var eng *DeltaCleaner
			var inj *errgen.Injection
			if name == "CAR" {
				eng, _, inj = carSession(t, 600)
			} else {
				eng, inj = haiSession(t, 420)
			}
			skipped, refused := 0, 0
			const steps = 300
			for step, m := range serveMix(inj, steps, 4200) {
				_, ds, err := eng.ApplyVersion([]Mutation{m})
				if err != nil {
					t.Fatal(err)
				}
				skipped += skippedFusionsMatchFresh(t, fmt.Sprintf("step %d (%+v)", step, m), eng)
				refused += ds.RefusedTuples
			}
			if skipped == 0 {
				t.Fatalf("%d steps left no conflicted tuple alone: the rule is not exercised", steps)
			}
			t.Logf("%d steps: %d tuples re-fused, %d conflicted ones left alone and checked", steps, refused, skipped)
		})
	}
	t.Run("domain", func(t *testing.T) { domainDecidesFusion(t) })
}

// domainDecidesFusion builds a table whose one conflicted tuple, T =
// (a, b1, c), chooses between two fusions only by domain sizes: its
// versions (a, x) under FD: A -> B and (c, y) under FD: C -> B disagree on
// B, and the two orders end in (a, x, c2) and (a2, y, c), whose pieces and
// weights mirror each other. One changes C and the other A, so the fusion
// changes the attribute whose domain is larger. Filler rows hold 10 more A
// values and 5 more C values under B = z, which T's searches never scan. A
// batch that moves the filler rows onto one A value shrinks A's domain from
// 12 to 3 and must turn T's fusion over, though nothing else T read moved.
func domainDecidesFusion(t *testing.T) {
	schema, err := dataset.NewSchema("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.MustParseStrings("FD: A -> B", "FD: C -> B")
	tb := dataset.NewTable(schema)
	add := func(vals ...string) {
		tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: len(tb.Tuples), Values: vals})
	}
	add("a", "b1", "c") // T
	for range 3 {
		add("a", "x", "c2")
		add("a2", "y", "c")
	}
	var filler []*dataset.Tuple
	for i := range 20 {
		add(fmt.Sprintf("f%d", i/2), "z", fmt.Sprintf("g%d", i/4))
		filler = append(filler, tb.Tuples[len(tb.Tuples)-1])
	}
	eng, err := NewDeltaCleaner(schema, rs, Options{Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(tb); err != nil {
		t.Fatal(err)
	}
	var merge, back []Mutation
	for _, tp := range filler {
		merge = append(merge, Mutation{Op: DeltaPut, Row: tp.ID, Values: []string{"f0", "z", tp.Values[2]}})
		back = append(back, Mutation{Op: DeltaPut, Row: tp.ID, Values: tp.Values})
	}
	fused := func() string { return strings.Join(eng.fusedTuples[0].Values, ",") }
	if got := fused(); got != "a,x,c2" {
		t.Fatalf("T fuses to %s on load, want a,x,c2", got)
	}
	for round, batch := range [][]Mutation{merge, back, merge} {
		res, _, err := eng.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		skippedFusionsMatchFresh(t, fmt.Sprintf("batch %d", round), eng)
		if eng.fuseRes[0].conflicted == 0 {
			t.Fatalf("batch %d: T is not conflicted", round)
		}
		assertParity(t, fmt.Sprintf("batch %d", round), res, blocksOf(eng, nil), eng.Table(), rs, Options{Tau: 1})
		want := "a2,y,c" // A's domain is the smaller now
		if round == 1 {
			want = "a,x,c2"
		}
		if got := fused(); got != want {
			t.Fatalf("batch %d: T fuses to %s with domains %v, want %s", round, got, eng.plan.domainSize, want)
		}
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
	if ds.ReusedTuples == 0 {
		t.Fatalf("expected cached fusion reuse, got %+v", ds)
	}
	if ds.RefusedTuples == 0 {
		t.Fatalf("the mutated tuple itself must re-fuse, got %+v", ds)
	}
}

// TestDeltaSharesUnchangedTuples: a version shares with the one before it
// every tuple whose repaired values did not change — the same *Tuple, not a
// copy, re-fused or not — and never edits a tuple an earlier version holds.
func TestDeltaSharesUnchangedTuples(t *testing.T) {
	dirty, rs := carDirty(t, 300, 5)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := eng.Load(dirty)
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		tuple  *dataset.Tuple
		values []string
	}
	rng := rand.New(rand.NewSource(5))
	shared, refused := 0, 0
	for step := 0; step < 12; step++ {
		before := make(map[int]seen, prev.Repaired.Len())
		for _, tp := range prev.Repaired.Tuples {
			before[tp.ID] = seen{tp, append([]string(nil), tp.Values...)}
		}
		id := dirty.Tuples[rng.Intn(dirty.Len())].ID
		vals := append([]string(nil), dirty.Tuples[rng.Intn(dirty.Len())].Values...)
		res, ds, err := eng.Apply([]Mutation{{Op: DeltaPut, Row: id, Values: vals}})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		refused += ds.RefusedTuples
		for _, tp := range res.Repaired.Tuples {
			old, ok := before[tp.ID]
			if !ok {
				t.Fatalf("step %d: tuple %d appeared from a PUT of a live row", step, tp.ID)
			}
			if !reflect.DeepEqual(old.tuple.Values, old.values) {
				t.Fatalf("step %d: the previous version's tuple %d was edited to %v", step, tp.ID, old.tuple.Values)
			}
			switch unchanged := reflect.DeepEqual(tp.Values, old.values); {
			case unchanged && tp != old.tuple:
				t.Fatalf("step %d: tuple %d kept its values %v but is a fresh copy", step, tp.ID, tp.Values)
			case !unchanged && tp == old.tuple:
				t.Fatalf("step %d: tuple %d changed but is shared", step, tp.ID)
			case unchanged:
				shared++
			}
		}
		prev = res
	}
	// Conflicted tuples re-fuse on every Apply, mostly to the row they had:
	// the sharing must reach past the tuples Apply did not touch at all.
	if refused <= 12 || shared == 0 {
		t.Fatalf("%d tuples re-fused over 12 single-row PUTs, %d shared: the sequence does not exercise re-fused sharing", refused, shared)
	}
}

// TestDeltaHugeRowID: tuple IDs are names, so a bare engine takes row
// 1<<40 as it takes any other — the result matches a from-scratch clean of
// the same table, and nothing the Apply allocates is sized by the ID.
func TestDeltaHugeRowID(t *testing.T) {
	dirty, rs := carDirty(t, 200, 3)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(dirty); err != nil {
		t.Fatal(err)
	}
	vals := append([]string(nil), dirty.Tuples[17].Values...)
	vals[1] = vals[1] + "x"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, err := eng.Apply([]Mutation{{Op: DeltaPut, Row: 1 << 40, Values: vals}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("inserting row 1<<40 allocated %d bytes, want at most %d", got, bound)
	}
	assertParity(t, "insert 1<<40", res, blocksOf(eng, nil), eng.Table(), rs, Options{})
	// A delete below the huge row shifts its position.
	res, _, err = eng.Apply([]Mutation{{Op: DeltaDelete, Row: 0}})
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "delete 0", res, blocksOf(eng, nil), eng.Table(), rs, Options{})
}

// placedVersions is block bi's version index placed from scratch at the
// engine's current positions: the walk Apply once re-ran on every block
// after each insert or delete, each tuple ID found by a binary search over
// the tuples themselves.
func placedVersions(eng *DeltaCleaner, bi int) []uint32 {
	at := make([]uint32, len(eng.tuples))
	for k, p := range eng.plan.blocks[bi].Pieces {
		for _, id := range p.TupleIDs {
			if i, ok := slices.BinarySearchFunc(eng.tuples, id, func(t *dataset.Tuple, id int) int { return cmp.Compare(t.ID, id) }); ok {
				at[i] = uint32(k) + 1
			}
		}
	}
	return at
}

// TestDeltaVersionIndexIsPlacement: Apply splices every block's version
// index on an insert or delete instead of placing it again, so after every
// Apply each index must equal a from-scratch placement of the block's
// pieces — across inserts, deletes, a delete and re-insert of one ID inside
// one batch, and rows far past the dense IDs. Every other row is made an
// acura, so the rows the CFD's block holds sit throughout the table, and an
// insert or delete of any other row leaves that block clean and shifts them.
func TestDeltaVersionIndexIsPlacement(t *testing.T) {
	dirty, rs := carDirty(t, 150, 11)
	for i, tp := range dirty.Tuples {
		if i%2 == 0 {
			tp.Values[dirty.Schema.MustIndex("Make")] = "acura"
		}
	}
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(dirty); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	live := make(map[int][]string, dirty.Len())
	for _, tp := range dirty.Tuples {
		live[tp.ID] = tp.Values
	}
	pick := func() int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[rng.Intn(len(ids))]
	}
	next, huge := dirty.Len(), 1<<40
	kinds := make(map[string]int)
	for step := 0; step < 16; step++ {
		var muts []Mutation
		for n := 1 + rng.Intn(4); len(muts) < n; {
			switch k := rng.Intn(5); {
			case k == 0 && len(live) > 8:
				id := pick()
				muts = append(muts, Mutation{Op: DeltaDelete, Row: id})
				delete(live, id)
				kinds["delete"]++
			case k == 1:
				id := next
				if rng.Intn(3) == 0 {
					id, huge = huge, huge+1+rng.Intn(1<<20)
					kinds["huge"]++
				} else {
					next++
				}
				vals := live[pick()]
				muts = append(muts, Mutation{Op: DeltaPut, Row: id, Values: vals})
				live[id] = vals
				kinds["insert"]++
			case k == 2:
				// Delete and re-insert one ID in the same batch, with another
				// row's values.
				id, vals := pick(), live[pick()]
				muts = append(muts, Mutation{Op: DeltaDelete, Row: id}, Mutation{Op: DeltaPut, Row: id, Values: vals})
				live[id] = vals
				kinds["delete+reinsert"]++
			default:
				id := pick()
				vals := slices.Clone(live[id])
				vals[rng.Intn(len(vals))] = live[pick()][rng.Intn(len(vals))]
				muts = append(muts, Mutation{Op: DeltaPut, Row: id, Values: vals})
				live[id] = vals
				kinds["update"]++
			}
		}
		if _, _, err := eng.Apply(muts); err != nil {
			t.Fatalf("step %d: Apply(%v): %v", step, muts, err)
		}
		if len(eng.ids) != len(eng.tuples) {
			t.Fatalf("step %d: %d IDs for %d tuples", step, len(eng.ids), len(eng.tuples))
		}
		for i, tp := range eng.tuples {
			if eng.ids[i] != tp.ID {
				t.Fatalf("step %d: position %d holds ID %d, tuple %d", step, i, eng.ids[i], tp.ID)
			}
		}
		for bi := range eng.plan.blocks {
			if got, want := eng.plan.versionOf[bi], placedVersions(eng, bi); !slices.Equal(got, want) {
				t.Fatalf("step %d: block %d's version index is not its placement:\n got %v\nwant %v", step, bi, got, want)
			}
		}
	}
	for _, k := range []string{"delete", "insert", "huge", "delete+reinsert", "update"} {
		if kinds[k] == 0 {
			t.Errorf("the sequence made no %s", k)
		}
	}
	assertParity(t, "last step", eng.cur.Result(), blocksOf(eng, nil), eng.Table(), rs, Options{})
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
	// Load takes only schema-wide tuples, as Apply takes only schema-wide PUTs.
	for name, width := range map[string]int{"short": 1, "wide": dirty.Schema.Len() + 1} {
		tb := dirty.Clone()
		tb.Tuples[7].Values = make([]string, width)
		fresh, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Load(tb); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tuple %d", tb.Tuples[7].ID)) {
			t.Errorf("%s tuple: Load error %v, want one naming tuple %d", name, err, tb.Tuples[7].ID)
		}
	}
}

// serveMix draws n single-tuple mutations in the serving benchmark's mix: per
// six, two single-cell corrections (an injected error set back to its clean
// value), two whole-row replacements by another row's observation, one insert
// at the next dense row and one delete.
func serveMix(inj *errgen.Injection, n int, seed int64) []Mutation {
	rng := rand.New(rand.NewSource(seed))
	schema := inj.Dirty.Schema
	rows := make(map[int][]string, inj.Dirty.Len())
	var live []int
	for _, tp := range inj.Dirty.Tuples {
		rows[tp.ID] = tp.Values
		live = append(live, tp.ID)
	}
	next := inj.Dirty.Len()
	pick := func() int { return live[rng.Intn(len(live))] }
	muts := make([]Mutation, 0, n)
	for i := 0; len(muts) < n; i++ {
		var m Mutation
		switch "CRICRD"[i%6] {
		case 'C':
			e := inj.Errors[rng.Intn(len(inj.Errors))]
			if rows[e.TupleID] == nil {
				continue // deleted since
			}
			vals := append([]string(nil), rows[e.TupleID]...)
			vals[schema.MustIndex(e.Attr)] = e.Clean
			m = Mutation{Op: DeltaPut, Row: e.TupleID, Values: vals}
		case 'R':
			m = Mutation{Op: DeltaPut, Row: pick(), Values: rows[pick()]}
		case 'I':
			m = Mutation{Op: DeltaPut, Row: next, Values: rows[pick()]}
			live = append(live, next)
			next++
		case 'D':
			at := rng.Intn(len(live))
			m = Mutation{Op: DeltaDelete, Row: live[at]}
			live = append(live[:at], live[at+1:]...)
		}
		rows[m.Row] = m.Values
		muts = append(muts, m)
	}
	return muts
}

// benchShape is the serving benchmark's session, loaded: CAR 5k rows, 5 %
// errors, τ = 1.
func benchShape(tb testing.TB) (*DeltaCleaner, *Version, *errgen.Injection) {
	tb.Helper()
	return carSession(tb, 5000)
}

// carSession is the serving benchmark's session at another row count.
func carSession(tb testing.TB, rows int) (*DeltaCleaner, *Version, *errgen.Injection) {
	tb.Helper()
	inj, rs := carSessionTable(tb, rows)
	eng, err := NewDeltaCleaner(inj.Dirty.Schema, rs, Options{Tau: 1})
	if err != nil {
		tb.Fatal(err)
	}
	v, err := eng.LoadVersion(inj.Dirty)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, v, inj
}

// carSessionTable is carSession's dirty table and rules, not yet loaded; the
// session cleans at τ = 1.
func carSessionTable(tb testing.TB, rows int) (*errgen.Injection, []*rules.Rule) {
	tb.Helper()
	const seed = 4200
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: rows, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: seed*1_000_003 + 17})
	if err != nil {
		tb.Fatal(err)
	}
	return inj, rs
}

// ownedBytes counts what version v holds that its parent does not share:
// its own header arrays, and every row chunk, weight vector and duplicate
// set it does not take from the parent.
func ownedBytes(v, parent *Version) int {
	n := int(unsafe.Sizeof(*v)) + cap(v.chunks)*int(unsafe.Sizeof(v.chunks[0])) + cap(v.weights)*int(unsafe.Sizeof(v.weights[0]))
	for _, c := range v.chunks {
		if !slices.Contains(parent.chunks, c) {
			n += int(unsafe.Sizeof(*c)) + cap(c.tuples)*int(unsafe.Sizeof(c.tuples[0])) + cap(c.trail)*int(unsafe.Sizeof(trailCell{}))
		}
	}
	for bi, ws := range v.weights {
		if was := parent.weights[bi].keys; len(ws.keys) > 0 && (len(was) == 0 || &ws.keys[0] != &was[0]) {
			n += cap(ws.keys) * int(unsafe.Sizeof(ws.keys[0]))
		}
		if was := parent.weights[bi].weights; len(ws.weights) > 0 && (len(was) == 0 || &ws.weights[0] != &was[0]) {
			n += cap(ws.weights) * int(unsafe.Sizeof(ws.weights[0]))
		}
	}
	if len(v.dups) > 0 && (len(parent.dups) == 0 || &v.dups[0] != &parent.dups[0]) {
		n += cap(v.dups) * int(unsafe.Sizeof(v.dups[0]))
		for _, set := range v.dups {
			n += len(set) * int(unsafe.Sizeof(0))
		}
	}
	return n
}

// learnedGroup is one group as weight learning saw and left it: its pieces'
// (KeyID, count) pairs in member order, and their learned weights.
type learnedGroup struct {
	pieces  [][2]int
	weights []float64
}

// learnedGroups re-derives, for every block of the engine's current table,
// what an Apply hands RSC: the block rebuilt and run through AGP and weight
// learning, its groups by KeyID, and its Σc — the normaliser of every Eq. 4
// prior in it.
func learnedGroups(t *testing.T, eng *DeltaCleaner) ([]map[uint32]learnedGroup, []int) {
	t.Helper()
	enc := &dataset.Encoded{Dict: eng.dict, Rows: eng.encRows}
	groups, sums := make([]map[uint32]learnedGroup, len(eng.rs)), make([]int, len(eng.rs))
	for ri, r := range eng.rs {
		b := index.BuildBlockFor(eng.view(), enc, r)
		agp(ri, b, eng.opts.Tau, soloCrew(eng.evs[0]), eng.opts.MergeCapRatio, nil)
		if _, err := learnBlockWeights(b, nil); err != nil {
			t.Fatal(err)
		}
		groups[ri] = make(map[uint32]learnedGroup, len(b.Groups))
		for _, g := range b.Groups {
			var lg learnedGroup
			for _, p := range g.Pieces {
				lg.pieces = append(lg.pieces, [2]int{int(p.KeyID()), p.Count()})
				lg.weights = append(lg.weights, p.Weight)
				sums[ri] += p.Count()
			}
			groups[ri][g.KeyID()] = lg
		}
	}
	return groups, sums
}

// TestDeltaUpdateKeepsUntouchedGroupWeights: a weight is a function of its
// own group. Through the updates of the serving mix, in every block an
// update rebuilt without moving its Σc, every group whose in-order (KeyID,
// count) sequence is unchanged learns each piece's weight bit for bit again,
// and the engine serves its RSC winner's weight unchanged — the weight the
// re-derived learning gives that piece. The session is small (CAR 600), so
// no block's slowest group sits at the sweep bound on every version: a stop
// shared across the block would move these weights.
func TestDeltaUpdateKeepsUntouchedGroupWeights(t *testing.T) {
	eng, _, inj := carSession(t, 600)
	before, sums := learnedGroups(t, eng)
	served := func(ri int) map[uint32]*index.Piece {
		out := make(map[uint32]*index.Piece)
		for _, g := range eng.blocks[ri].block.Groups {
			out[g.KeyID()] = g.Pieces[0] // one winner per group after RSC
		}
		return out
	}
	kept, updates := 0, 0
	for _, m := range serveMix(inj, 60, 4200) {
		if m.Op != DeltaPut || !eng.Has(m.Row) {
			continue // inserts and deletes move Σc in every block they touch
		}
		updates++
		was := make([]map[uint32]*index.Piece, len(eng.rs))
		blocks := make([]*index.Block, len(eng.rs))
		for ri := range eng.rs {
			was[ri], blocks[ri] = served(ri), eng.blocks[ri].block
		}
		if _, _, err := eng.Apply([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
		after, afterSums := learnedGroups(t, eng)
		for ri := range eng.rs {
			if eng.blocks[ri].block == blocks[ri] || afterSums[ri] != sums[ri] {
				continue
			}
			now := served(ri)
			for kid, g := range after[ri] {
				old, ok := before[ri][kid]
				if !ok || !slices.Equal(old.pieces, g.pieces) {
					continue
				}
				kept++
				for k, w := range g.weights {
					if math.Float64bits(w) != math.Float64bits(old.weights[k]) {
						t.Fatalf("update %d, block %d, group %d: piece %d weight %v, was %v", updates, ri, kid, g.pieces[k][0], w, old.weights[k])
					}
				}
				p, q := now[kid], was[ri][kid]
				at := slices.IndexFunc(g.pieces, func(pc [2]int) bool { return uint32(pc[0]) == p.KeyID() })
				if p.KeyID() != q.KeyID() || math.Float64bits(p.Weight) != math.Float64bits(q.Weight) || at < 0 || math.Float64bits(p.Weight) != math.Float64bits(g.weights[at]) {
					t.Fatalf("update %d, block %d, group %d: serves piece %d at %v, was piece %d at %v", updates, ri, kid, p.KeyID(), p.Weight, q.KeyID(), q.Weight)
				}
			}
		}
		before, sums = after, afterSums
	}
	if kept == 0 {
		t.Fatalf("%d updates left no group unchanged in a rebuilt block: nothing was checked", updates)
	}
	t.Logf("%d updates: %d unchanged groups in rebuilt blocks kept their weights", updates, kept)
}

// TestDeltaUpdateRegroupsWhatItReached: a re-clean's work is what its edit
// reached, counted in groups. On CAR 600, updates each move one tuple
// between two pieces of its group in FD: Make, Type -> Doors — one group
// touched, the rule's Σc unchanged — and only that block is dirty. Where
// no AGP decision of the block moved, the re-clean learns and picks at
// most 3 groups, of hundreds.
func TestDeltaUpdateRegroupsWhatItReached(t *testing.T) {
	eng, _, _ := carSession(t, 600)
	ri := slices.IndexFunc(eng.rs, func(r *rules.Rule) bool { return r.Kind == rules.FD && r.ResultAttrs()[0] == "Doors" })
	if ri < 0 {
		t.Fatal("CAR has no rule FD: Make, Type -> Doors")
	}
	makePos, doorsPos := eng.schema.MustIndex("Make"), eng.schema.MustIndex("Doors")
	decisions := func() map[uint32]agpBest { return maps.Clone(eng.blocks[ri].memo.agp.best) }
	checked, most := 0, 0
	for _, g := range eng.blocks[ri].kept.Block().Groups {
		if len(g.Pieces) < 2 || checked == 20 {
			continue
		}
		id, doors := g.Pieces[0].TupleIDs[0], g.Pieces[1].Result()[0]
		pos, _ := eng.posOf(id)
		vals := slices.Clone(eng.tuples[pos].Values)
		if vals[makePos] == "acura" {
			continue // the CFD's block holds the tuple too
		}
		vals[doorsPos] = doors
		was := decisions()
		_, ds, err := eng.ApplyVersion([]Mutation{{Op: DeltaPut, Row: id, Values: vals}})
		if err != nil {
			t.Fatal(err)
		}
		if ds.DirtyBlocks != 1 {
			t.Fatalf("moving tuple %d's Doors dirtied %d blocks, want 1", id, ds.DirtyBlocks)
		}
		if !maps.Equal(was, decisions()) {
			continue
		}
		checked++
		db := eng.blocks[ri]
		if n := db.res.regrouped; n < 1 || n > 3 {
			t.Fatalf("moving tuple %d within its group re-cleaned %d of %d groups, want 1 to 3", id, n, len(db.block.Groups))
		}
		most = max(most, db.res.regrouped)
	}
	if checked == 0 {
		t.Fatal("no update left every AGP decision in place: nothing was checked")
	}
	t.Logf("%d updates re-cleaned %d groups at most, of %d", checked, most, len(eng.blocks[ri].block.Groups))
}

// rebuiltBlocks lists the rules whose blocks differ from was, the blocks
// before an Apply.
func rebuiltBlocks(eng *DeltaCleaner, was []*index.Block) []int {
	var out []int
	for ri, db := range eng.blocks {
		if db.block != was[ri] {
			out = append(out, ri)
		}
	}
	return out
}

// blocksOf is the engine's current block of every rule.
func blocksOf(eng *DeltaCleaner, into []*index.Block) []*index.Block {
	into = into[:0]
	for _, db := range eng.blocks {
		into = append(into, db.block)
	}
	return into
}

// TestDeltaRelearnMatchesFresh: a rebuilt block learns what a fresh build
// learns. Through the serving mix on CAR 600, after every ApplyVersion, each
// rebuilt block is built afresh from the engine's table and run through AGP
// and learnBlockWeights: the block's LearnIterations must equal the fresh
// learn's, and each served RSC winner's weight the fresh weight of the same
// piece, bit for bit. Updates, inserts and deletes must all come up.
func TestDeltaRelearnMatchesFresh(t *testing.T) {
	eng, _, inj := carSession(t, 600)
	c := soloCrew(eng.evs[0])
	var was []*index.Block
	updates, others, checked := 0, 0, 0
	for step, m := range serveMix(inj, 90, 4200) {
		update := m.Op == DeltaPut && eng.Has(m.Row)
		was = blocksOf(eng, was)
		if _, _, err := eng.ApplyVersion([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
		rebuilt := rebuiltBlocks(eng, was)
		enc := &dataset.Encoded{Dict: eng.dict, Rows: eng.encRows}
		for _, ri := range rebuilt {
			db := eng.blocks[ri]
			b := index.BuildBlockFor(eng.view(), enc, eng.rs[ri])
			agp(ri, b, eng.opts.Tau, c, eng.opts.MergeCapRatio, nil)
			iters, err := learnBlockWeights(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if db.res.learnIters != iters {
				t.Fatalf("step %d, block %d: LearnIterations %d, a fresh learn %d", step, ri, db.res.learnIters, iters)
			}
			fresh := make(map[uint32]*index.Group, len(b.Groups))
			for _, g := range b.Groups {
				fresh[g.KeyID()] = g
			}
			for _, g := range db.block.Groups {
				w := g.Pieces[0] // one winner per group after RSC
				k := slices.IndexFunc(fresh[g.KeyID()].Pieces, func(p *index.Piece) bool { return p.KeyID() == w.KeyID() })
				if k < 0 || math.Float64bits(w.Weight) != math.Float64bits(fresh[g.KeyID()].Pieces[k].Weight) {
					t.Fatalf("step %d, block %d, group %d: serves piece %d at %v, not the fresh learn's weight", step, ri, g.KeyID(), w.KeyID(), w.Weight)
				}
				checked++
			}
		}
		switch {
		case len(rebuilt) == 0:
		case update:
			updates++
		default:
			others++
		}
	}
	if updates == 0 || others == 0 {
		t.Fatalf("%d updates and %d inserts or deletes rebuilt a block: a case never came up", updates, others)
	}
	t.Logf("%d updates and %d inserts or deletes rebuilt blocks; %d served winners checked", updates, others, checked)
}

// TestDeltaVersionOwnedBytes: a served version costs what changed, not the
// table. On the serving benchmark's session, the versions of 48 mutations of
// its mix own 16 KiB each at most on average.
func TestDeltaVersionOwnedBytes(t *testing.T) {
	eng, prev, inj := benchShape(t)
	const versions, bound = 48, 16 << 10
	total := 0
	for _, m := range serveMix(inj, versions, 4200) {
		v, _, err := eng.ApplyVersion([]Mutation{m})
		if err != nil {
			t.Fatal(err)
		}
		total += ownedBytes(v, prev)
		prev = v
	}
	if mean := total / versions; mean > bound {
		t.Fatalf("a version owns %d bytes on average, want at most %d", mean, bound)
	} else {
		t.Logf("a version owns %d bytes on average", mean)
	}
}

// BenchmarkDeltaApply mints one served version per op on the serving
// benchmark's shape (benchShape), loaded once: one mutation applied, then
// the version's whole audit trail resolved. mix draws the mutations from
// serveMix; update, insert and delete each take one kind alone (kindMix).
// ns/op and allocs/op are per minted version; refused/op is the tuples
// re-fused, owned_B/op the bytes the version does not share with its
// parent, regrouped/op the groups the re-cleaned blocks learned and gave
// an RSC winner, and recollapsed/op those of them copied, merged, RSC'd
// and collapsed: the rest were only reweighed.
func BenchmarkDeltaApply(b *testing.B) {
	for _, kind := range []string{"mix", "update", "insert", "delete"} {
		b.Run(kind, func(b *testing.B) {
			eng, prev, inj := benchShape(b)
			var muts []Mutation
			if kind == "mix" {
				muts = serveMix(inj, b.N, 4200)
			} else {
				muts = kindMix(b, inj, kind, b.N, 4200)
			}
			refused, kept, repairs, owned, regrouped, recollapsed := 0, 0, 0, 0, 0, 0
			var was []*index.Block
			b.ReportAllocs()
			b.ResetTimer()
			for _, m := range muts {
				was = blocksOf(eng, was)
				v, ds, err := eng.ApplyVersion([]Mutation{m})
				if err != nil {
					b.Fatal(err)
				}
				for _, ri := range rebuiltBlocks(eng, was) {
					regrouped += eng.blocks[ri].res.regrouped
					recollapsed += eng.blocks[ri].res.recollapsed
				}
				refused, kept = refused+ds.RefusedTuples, kept+eng.kept
				repairs += len(v.Trail())
				owned += ownedBytes(v, prev)
				prev = v
			}
			b.ReportMetric(float64(refused)/float64(b.N), "refused/op")
			b.ReportMetric(float64(kept)/float64(b.N), "kept/op")
			b.ReportMetric(float64(repairs)/float64(b.N), "repairs/op")
			b.ReportMetric(float64(owned)/float64(b.N), "owned_B/op")
			b.ReportMetric(float64(regrouped)/float64(b.N), "regrouped/op")
			b.ReportMetric(float64(recollapsed)/float64(b.N), "recollapsed/op")
		})
	}
}

// BenchmarkDeltaApplyScale is BenchmarkDeltaApply's update, insert and
// delete on the serving benchmark's CAR session at 5k and at 30k rows
// (carSession): what one minted version costs as the table grows.
// refused/op is the tuples re-fused, and kept/op the conflicted ones whose
// slack let them be, though something they read drifted.
func BenchmarkDeltaApplyScale(b *testing.B) {
	for _, rows := range []int{5000, 30000} {
		for _, kind := range []string{"update", "insert", "delete"} {
			b.Run(fmt.Sprintf("%s/%dk", kind, rows/1000), func(b *testing.B) {
				eng, _, inj := carSession(b, rows)
				muts := kindMix(b, inj, kind, b.N, 4200)
				refused, kept := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for _, m := range muts {
					_, ds, err := eng.ApplyVersion([]Mutation{m})
					if err != nil {
						b.Fatal(err)
					}
					refused, kept = refused+ds.RefusedTuples, kept+eng.kept
				}
				b.ReportMetric(float64(refused)/float64(b.N), "refused/op")
				b.ReportMetric(float64(kept)/float64(b.N), "kept/op")
			})
		}
	}
}

// TestDeltaRefusedVsMoved counts, per mutation kind on carSession's 5k
// table (200 mutations of kindMix's each), the tuples an Apply re-fuses
// (DeltaStats.RefusedTuples) against the fused rows that actually moved (a
// tuple's cached fused row replaced) and the rows inserted, and logs both
// with the conflicted tuples the slack kept: the waste ROADMAP item 30
// targets, as a number. A row moves only when its tuple is re-fused, so
// moved and new rows never outnumber re-fused ones. An insert or a delete
// moves Σc, and so nudges every contested weight of a block, but must
// re-fuse at most twice what an update does.
func TestDeltaRefusedVsMoved(t *testing.T) {
	const n = 200
	per := make(map[string]float64)
	for _, kind := range []string{"update", "insert", "delete"} {
		eng, _, inj := carSession(t, 5000)
		muts := kindMix(t, inj, kind, n, 4200)
		last := make(map[int]*uint32, len(eng.ids))
		for i, id := range eng.ids {
			last[id] = &eng.fusedRows[i][0]
		}
		refused, kept, moved, added := 0, 0, 0, 0
		for step, m := range muts {
			_, ds, err := eng.ApplyVersion([]Mutation{m})
			if err != nil {
				t.Fatalf("%s step %d: %v", kind, step, err)
			}
			refused, kept = refused+ds.RefusedTuples, kept+eng.kept
			for i, id := range eng.ids {
				row := &eng.fusedRows[i][0]
				if was, ok := last[id]; !ok {
					added++
				} else if was != row {
					moved++
				}
				last[id] = row
			}
		}
		if refused == 0 || moved+added > refused {
			t.Errorf("%s: %d tuples re-fused, %d fused rows moved, %d new", kind, refused, moved, added)
		}
		per[kind] = float64(refused) / n
		t.Logf("%s, 5k: %.1f tuples re-fused per mutation, %.1f kept by their slack, %.2f fused rows moved, %.2f new rows",
			kind, per[kind], float64(kept)/n, float64(moved)/n, float64(added)/n)
	}
	for _, kind := range []string{"insert", "delete"} {
		if per[kind] > 2*per["update"] {
			t.Errorf("%s re-fuses %.1f tuples per mutation, more than twice an update's %.1f", kind, per[kind], per["update"])
		}
	}
}

// TestDeltaSlackNearTies builds, on FD: A -> B and FD: C -> B with AGP off,
// a conflicted tuple T = (a, b1, c) whose versions (a, x) and (c, y)
// disagree on B. Its best order keeps (a, x) and replaces (c, y) with the
// better of the C -> B winners (c2, x) and (c3, x); the other order changes
// A, whose domain is large, and loses by far. Each case makes that pick a
// tie or near-tie that one mutation flips, with no domain size T read
// moved, and requires the mutation to re-fuse T and serve Clean's table:
//   - near: the C = c2 group counts x 12, z1 5, z2 2 and the C = c3 group
//     x 10, z3 6. At Σc = 61 their winners' weights differ by a factor of
//     about 1 + 1.1e-5, and inserting a filler row (Σc = 62) turns them
//     over: two candidates closer than one insert's drift;
//   - one: both groups hold x only, so both winners weigh exactly 1 and
//     their keys decide. A row that gives the group T picked a second piece
//     makes its winner contested, and the other group's wins.
func TestDeltaSlackNearTies(t *testing.T) {
	schema, err := dataset.NewSchema("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.MustParseStrings("FD: A -> B", "FD: C -> B")
	opts := Options{TauSet: true}
	type rows struct {
		vals []string
		n    int
	}
	build := func(spec []rows) *dataset.Table {
		tb := dataset.NewTable(schema)
		for _, r := range spec {
			for range r.n {
				vals := slices.Clone(r.vals)
				if vals[0] == "p" { // a fresh A value: an uncontested group
					vals[0] = fmt.Sprintf("p%d", tb.Len())
				}
				tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: tb.Len(), Values: vals})
			}
		}
		return tb
	}
	cases := []struct {
		name string
		spec []rows
		// mutate returns the mutation that turns T's pick over, given the C
		// value T fused to on Load.
		mutate func(tb *dataset.Table, picked string) Mutation
	}{
		{"near", []rows{
			{[]string{"a", "b1", "c"}, 1},
			{[]string{"a", "x", "c2"}, 3},
			{[]string{"p", "x", "c2"}, 9},
			{[]string{"p", "z1", "c2"}, 5},
			{[]string{"p", "z2", "c2"}, 2},
			{[]string{"p", "x", "c3"}, 10},
			{[]string{"p", "z3", "c3"}, 6},
			{[]string{"a2", "y", "c"}, 3},
			{[]string{"f", "w", "g"}, 22},
		}, func(tb *dataset.Table, _ string) Mutation {
			return Mutation{Op: DeltaPut, Row: tb.Len(), Values: []string{"f", "w", "g"}}
		}},
		{"one", []rows{
			{[]string{"a", "b1", "c"}, 1},
			{[]string{"a", "x", "c2"}, 3},
			{[]string{"q", "x", "c3"}, 3},
			{[]string{"a2", "y", "c"}, 3},
			{[]string{"p", "w", "g"}, 30},
		}, func(tb *dataset.Table, picked string) Mutation {
			return Mutation{Op: DeltaPut, Row: tb.Len(), Values: []string{"q", "w", picked}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := build(c.spec)
			eng, err := NewDeltaCleaner(schema, rs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load(tb); err != nil {
				t.Fatal(err)
			}
			fused := func() []string { return eng.fusedTuples[0].Values }
			if eng.fuseRes[0].conflicted == 0 || fused()[0] != "a" || fused()[1] != "x" {
				t.Fatalf("T fuses to %v on Load, conflicted %d: want (a, x, c2 or c3) out of a conflict", fused(), eng.fuseRes[0].conflicted)
			}
			picked := fused()[2]
			slack := eng.reads[0].slack
			m := c.mutate(tb, picked)
			domains := slices.Clone(eng.plan.domainSize)
			res, _, err := eng.Apply([]Mutation{m})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(domains, eng.plan.domainSize) {
				t.Fatalf("the mutation moved a domain size: %v, then %v", domains, eng.plan.domainSize)
			}
			if !slices.Contains(eng.refusing, 0) {
				t.Errorf("T (slack %g at Load) was not re-fused", slack)
			}
			after := eng.Table()
			assertParity(t, c.name, res, blocksOf(eng, nil), after, rs, opts)
			if got := fused()[2]; got == picked {
				t.Errorf("T still fuses to C = %s: the mutation did not turn its pick over", got)
			}
			t.Logf("T's slack at Load %g; its pick C = %s, then %s", slack, picked, fused()[2])
		})
	}
}

// BenchmarkLoadVsClean prices a served session's first version against the
// batch clean of the same table: Clean, and NewDeltaCleaner + LoadVersion,
// on carSession's table at 5k and 30k rows (ROADMAP item 32 (a) asks a Load
// to cost within 1.1× a Clean).
func BenchmarkLoadVsClean(b *testing.B) {
	opts := Options{Tau: 1}
	for _, rows := range []int{5000, 30000} {
		inj, rs := carSessionTable(b, rows)
		b.Run(fmt.Sprintf("clean/%dk", rows/1000), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Clean(inj.Dirty, rs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("load/%dk", rows/1000), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				eng, err := NewDeltaCleaner(inj.Dirty.Schema, rs, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.LoadVersion(inj.Dirty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kindMix draws n mutations of one kind of serveMix's: "update" alternates
// its single-cell corrections and whole-row replacements, "insert" adds rows
// at the next dense IDs with another row's values, and "delete" removes live
// rows, at most half the table.
func kindMix(tb testing.TB, inj *errgen.Injection, kind string, n int, seed int64) []Mutation {
	tb.Helper()
	if kind == "delete" && n > inj.Dirty.Len()/2 {
		tb.Fatalf("%d deletes would drain more than half of %d rows", n, inj.Dirty.Len())
	}
	rng := rand.New(rand.NewSource(seed))
	schema := inj.Dirty.Schema
	rows := make(map[int][]string, inj.Dirty.Len())
	var live []int
	for _, tp := range inj.Dirty.Tuples {
		rows[tp.ID] = tp.Values
		live = append(live, tp.ID)
	}
	next := inj.Dirty.Len()
	pick := func() int { return live[rng.Intn(len(live))] }
	muts := make([]Mutation, 0, n)
	for i := 0; len(muts) < n; i++ {
		var m Mutation
		switch {
		case kind == "update" && i%2 == 0:
			e := inj.Errors[rng.Intn(len(inj.Errors))]
			vals := append([]string(nil), rows[e.TupleID]...)
			vals[schema.MustIndex(e.Attr)] = e.Clean
			m = Mutation{Op: DeltaPut, Row: e.TupleID, Values: vals}
		case kind == "update":
			m = Mutation{Op: DeltaPut, Row: pick(), Values: rows[pick()]}
		case kind == "insert":
			m = Mutation{Op: DeltaPut, Row: next, Values: rows[pick()]}
			live = append(live, next)
			next++
		case kind == "delete":
			at := rng.Intn(len(live))
			m = Mutation{Op: DeltaDelete, Row: live[at]}
			live = append(live[:at], live[at+1:]...)
		default:
			tb.Fatalf("unknown mutation kind %q", kind)
		}
		rows[m.Row] = m.Values
		muts = append(muts, m)
	}
	return muts
}

// versionBytes is everything a version serves, as bytes: its materialized
// Result (both tables, duplicate sets, Stats) and its whole audit trail.
func versionBytes(t *testing.T, v *Version) []byte {
	t.Helper()
	type tuple struct {
		ID     int
		Values []string
	}
	rows := func(tb *dataset.Table) []tuple {
		out := make([]tuple, len(tb.Tuples))
		for i, tp := range tb.Tuples {
			out[i] = tuple{tp.ID, tp.Values}
		}
		return out
	}
	res := v.Result()
	b, err := json.Marshal(struct {
		Repaired, Clean []tuple
		Duplicates      [][]int
		Stats           Stats
		Trail           []Repair
	}{rows(res.Repaired), rows(res.Clean), res.Duplicates, res.Stats, v.Trail()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeltaVersionsImmutable: versions share row chunks and weight vectors,
// and a later Apply must never change what an earlier version serves. Every
// version, after every later Apply, must give the bytes it gave when minted:
// through the serving mix, and through batches at chunk edges (IDs 255, 256,
// 511), a delete that empties a chunk, ID 1<<40, and a delete then re-insert
// of one ID in one batch.
func TestDeltaVersionsImmutable(t *testing.T) {
	const seed = 11
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: 600, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.08, ReplacementRatio: 0.5, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewDeltaCleaner(inj.Dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := eng.LoadVersion(inj.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	versions, minted := []*Version{v}, [][]byte{versionBytes(t, v)}
	rows := make(map[int][]string, inj.Dirty.Len())
	for _, tp := range inj.Dirty.Tuples {
		rows[tp.ID] = tp.Values
	}
	rng := rand.New(rand.NewSource(seed))
	someValues := func() []string {
		vals := slices.Clone(inj.Dirty.Tuples[rng.Intn(inj.Dirty.Len())].Values)
		vals[rng.Intn(len(vals))] = fmt.Sprintf("v%d", rng.Intn(4))
		return vals
	}
	// toggle deletes a live ID and puts a dead one.
	toggle := func(id int) Mutation {
		if rows[id] != nil {
			return Mutation{Op: DeltaDelete, Row: id}
		}
		return Mutation{Op: DeltaPut, Row: id, Values: someValues()}
	}
	shared := 0
	apply := func(label string, muts ...Mutation) {
		t.Helper()
		v, _, err := eng.ApplyVersion(muts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, m := range muts {
			if m.Op == DeltaDelete {
				delete(rows, m.Row)
			} else {
				rows[m.Row] = m.Values
			}
		}
		for _, c := range v.chunks {
			if slices.Contains(versions[len(versions)-1].chunks, c) {
				shared++
			}
		}
		versions, minted = append(versions, v), append(minted, versionBytes(t, v))
		for i, old := range versions[:len(versions)-1] {
			if got := versionBytes(t, old); !bytes.Equal(got, minted[i]) {
				t.Fatalf("%s: version %d changed:\n got %s\nwant %s", label, i+1, got, minted[i])
			}
		}
	}

	for i, m := range serveMix(inj, 12, seed) {
		apply(fmt.Sprintf("serve mix %d", i), m)
	}
	apply("edges 255, 256", toggle(255), toggle(256))
	apply("edges 255, 511", toggle(255), Mutation{Op: DeltaPut, Row: 511, Values: someValues()})
	apply("edges 511, 256", toggle(511), toggle(256))
	apply("insert 1<<40", Mutation{Op: DeltaPut, Row: 1 << 40, Values: someValues()})
	apply("delete 1<<40, emptying its chunk", Mutation{Op: DeltaDelete, Row: 1 << 40})
	var chunk2 []Mutation
	for id := range rows {
		if id/chunkWidth == 2 {
			chunk2 = append(chunk2, Mutation{Op: DeltaDelete, Row: id})
		}
	}
	apply("delete all of chunk 2", chunk2...)
	apply("delete then re-insert 300", Mutation{Op: DeltaDelete, Row: 300}, Mutation{Op: DeltaPut, Row: 300, Values: someValues()})
	for step := 0; step < 8; step++ {
		var muts []Mutation
		for n := 1 + rng.Intn(3); len(muts) < n; {
			id := []int{0, 254, 255, 256, 257, 510, 511, 512, 767, 768}[rng.Intn(10)]
			if slices.ContainsFunc(muts, func(m Mutation) bool { return m.Row == id }) {
				continue
			}
			if rng.Intn(2) == 0 && rows[id] != nil {
				muts = append(muts, Mutation{Op: DeltaPut, Row: id, Values: someValues()})
			} else {
				muts = append(muts, toggle(id))
			}
		}
		apply(fmt.Sprintf("random batch %d", step), muts...)
	}
	if shared == 0 {
		t.Fatal("no version shared a chunk with its parent")
	}
	last := versions[len(versions)-1]
	assertParity(t, "last version", last.Result(), blocksOf(eng, nil), eng.Table(), rs, Options{})
	// A window of the trail is that window of the whole trail, across chunk
	// boundaries and past the end.
	trail := last.Trail()
	if len(last.chunks) < 3 || len(last.chunks[0].trail) == 0 {
		t.Fatalf("the last version has %d chunks: its trail windows cross no boundary", len(last.chunks))
	}
	for from := 0; from <= len(trail)+1; from++ {
		for _, n := range []int{0, 1, 2, 7, len(last.chunks[0].trail) + 1, len(trail)} {
			got, want := last.Repairs(from, from+n), trail[min(from, len(trail)):min(from+n, len(trail))]
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("Repairs(%d, %d) = %v, want %v", from, from+n, got, want)
			}
		}
	}
}

// TestDeltaTrailLaterInternedSequence: a version resolves its trail's rules
// and weights when read, through a dictionary later rebuilds keep interning
// into. Tuple 6's B is repaired by FD A -> B. Its dirty B is not the CFD's
// constant, so the CFD's block holds no version of it, and the repaired
// row's projection onto the CFD (b1, a1, c5) is interned by no block: at
// mint time only the FD explains the repair. A later batch deletes the
// (a1, b1, c1) rows and inserts copies of the repaired row, so (b1, a1, c5)
// becomes the CFD block's uncontested piece and outweighs the FD's: against
// the later weights the CFD explains the repair. The old version must keep
// its mint-time rule and weight.
func TestDeltaTrailLaterInternedSequence(t *testing.T) {
	rs := rules.MustParseStrings("CFD: B=b1, A -> C", "FD: A -> B")
	tb := dataset.NewTable(dataset.MustSchema("A", "B", "C"))
	for range 6 {
		tb.MustAppend("a1", "b1", "c1")
	}
	tb.MustAppend("a1", "bx", "c5")
	for range 5 {
		tb.MustAppend("a2", "b2", "c2")
	}
	eng, err := NewDeltaCleaner(tb.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	old, err := eng.LoadVersion(tb)
	if err != nil {
		t.Fatal(err)
	}
	minted := old.Trail()
	at := slices.IndexFunc(minted, func(r Repair) bool { return r.Tuple == 6 && r.Attr == "B" })
	if at < 0 || minted[at].New != "b1" || minted[at].Rule != rs[1].ID {
		t.Fatalf("version 1's trail %v: want tuple 6's B repaired to b1 by %s", minted, rs[1].ID)
	}
	seq := func() []uint32 {
		ids := make([]uint32, 3)
		for i, v := range []string{"b1", "a1", "c5"} {
			ids[i], _ = eng.dict.Lookup(v)
		}
		return ids
	}
	if _, ok := eng.dict.LookupSeq(seq()); ok {
		t.Fatal("(b1, a1, c5) was interned at mint time: the fixture exercises nothing")
	}

	var muts []Mutation
	for id := range 6 {
		muts = append(muts, Mutation{Op: DeltaDelete, Row: id})
	}
	for id := tb.Len(); id < tb.Len()+8; id++ {
		muts = append(muts, Mutation{Op: DeltaPut, Row: id, Values: []string{"a1", "b1", "c5"}})
	}
	now, _, err := eng.ApplyVersion(muts)
	if err != nil {
		t.Fatal(err)
	}
	if got := old.Trail(); !reflect.DeepEqual(got, minted) {
		t.Fatalf("version 1's trail changed after a later insert:\n got %v\nwant %v", got, minted)
	}
	kid, ok := eng.dict.LookupSeq(seq())
	if !ok || !slices.Contains(now.weights[0].keys, kid) {
		t.Fatal("(b1, a1, c5) is not a piece of the CFD's block after the inserts: the fixture exercises nothing")
	}
	row := []uint32{seq()[1], seq()[0], seq()[2]}
	if rule, _, _ := now.attribute(row, 1, nil); rule != rs[0].ID {
		t.Fatalf("against the later version's weights the repair is %q's, want %q's: the fixture exercises nothing", rule, rs[0].ID)
	}
}
