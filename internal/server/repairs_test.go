package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// stageIBlocks is a from-scratch stage I of tb, one stage at a time over a
// built index: one weighted winner per group, the weight vector a version of
// tb attributes its repairs against.
func stageIBlocks(t *testing.T, tb *dataset.Table, rs []*rules.Rule, opts core.Options) []*index.Block {
	t.Helper()
	ix, err := index.BuildConfigured(tb, rs, index.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var st core.Stats
	for _, stage := range []func(context.Context, *index.Index, core.Options, *core.Stats) error{core.StageAGP, core.StageLearn, core.StageRSC} {
		if err := stage(context.Background(), ix, opts, &st); err != nil {
			t.Fatal(err)
		}
	}
	return ix.Blocks
}

// computeRepairsTable is the string oracle of a version's audit trail: it
// diffs the version's input table against its repaired output (pre-dedup, so
// both carry the same tuple IDs) and attributes each changed cell against the
// weights of the version's stage-I blocks by joined keys. The engine's Trail
// must reproduce it wherever joined keys are unambiguous (no value holds the
// 0x1f separator, rule IDs are distinct).
func computeRepairsTable(schema *dataset.Schema, dirty, repaired *dataset.Table, rs []*rules.Rule, blocks []*index.Block) []Repair {
	origRows := make(map[int][]string, dirty.Len())
	for _, t := range dirty.Tuples {
		origRows[t.ID] = t.Values
	}
	weightOf := make(map[string]float64)
	for _, b := range blocks {
		for _, p := range b.Pieces() {
			weightOf[b.Rule.ID+"\x1f"+p.Key()] = p.Weight
		}
	}
	attrs := schema.Attrs()
	var out []Repair
	for _, t := range repaired.Tuples {
		orig, ok := origRows[t.ID]
		if !ok || len(orig) != len(t.Values) {
			continue
		}
		for j, attr := range attrs {
			if orig[j] == t.Values[j] {
				continue
			}
			rule, weight := attributeRepair(repaired, t, attr, rs, weightOf)
			out = append(out, Repair{
				Tuple: t.ID, Attr: attr,
				Old: orig[j], New: t.Values[j],
				Rule: rule, Weight: weight,
			})
		}
	}
	sort.SliceStable(out, func(i, k int) bool {
		if out[i].Tuple != out[k].Tuple {
			return out[i].Tuple < out[k].Tuple
		}
		return schema.MustIndex(out[i].Attr) < schema.MustIndex(out[k].Attr)
	})
	return out
}

// attributeRepair finds the rule whose weighted piece the repaired tuple now
// satisfies on attr, by joined key.
func attributeRepair(tb *dataset.Table, t *dataset.Tuple, attr string, rs []*rules.Rule, weightOf map[string]float64) (string, float64) {
	bestRule, bestWeight, found := "", 0.0, false
	for _, r := range rs {
		touches := false
		for _, a := range r.Attrs() {
			if a == attr {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		key := r.ID + "\x1f" + dataset.JoinKey(tb.Project(t, r.Attrs()))
		w, ok := weightOf[key]
		if !ok {
			continue
		}
		if !found || w > bestWeight || (w == bestWeight && r.ID < bestRule) {
			bestRule, bestWeight, found = r.ID, w, true
		}
	}
	return bestRule, bestWeight
}

// TestDeltaTrailMatchesOracle runs randomized mutation batches (updates,
// inserts, revivals, deletes) on CAR and HAI through the delta engine and
// requires every version's trail, Load's included, to equal the string
// oracle over the version's input, result and weight vector. CHAOS_SEEDS
// widens the grid in CI.
func TestDeltaTrailMatchesOracle(t *testing.T) {
	for _, fx := range []struct {
		name    string
		tau     int
		fixture func(seed int64) (*dataset.Table, []*rules.Rule, string)
	}{
		{"car", 1, func(seed int64) (*dataset.Table, []*rules.Rule, string) { return carFixture(t, 150, seed) }},
		{"hai", 2, func(seed int64) (*dataset.Table, []*rules.Rule, string) { return hospitalFixtureSeed(t, seed) }},
	} {
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed=%d", fx.name, seed), func(t *testing.T) {
				dirty, rs, _ := fx.fixture(seed)
				schema := dirty.Schema
				eng, err := core.NewDeltaCleaner(schema, rs, core.Options{Tau: fx.tau})
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Load(dirty)
				if err != nil {
					t.Fatal(err)
				}
				rows := make(map[int][]string, dirty.Len())
				for _, tp := range dirty.Tuples {
					rows[tp.ID] = tp.Values
				}
				// The oracle diffs the mirrored input, and weighs against a
				// fresh stage I of it, not the engine's blocks.
				check := func(label string, res *core.Result) {
					t.Helper()
					got := eng.Trail()
					ref := mirrorTable(schema, rows)
					want := computeRepairsTable(schema, ref, res.Repaired, rs, stageIBlocks(t, ref, rs, core.Options{Tau: fx.tau}))
					if !reflect.DeepEqual(got, want) {
						for i := range min(len(got), len(want)) {
							if got[i] != want[i] {
								t.Fatalf("%s: repair %d of %d: got %+v, oracle %+v", label, i, len(want), got[i], want[i])
							}
						}
						t.Fatalf("%s: trail has %d repairs, oracle %d", label, len(got), len(want))
					}
				}
				check("load", res)
				if len(eng.Trail()) == 0 {
					t.Fatal("the fixture's clean repaired nothing: no trail to compare")
				}

				var pool []string
				for _, tp := range dirty.Tuples[:16] {
					pool = append(pool, tp.Values...)
				}
				next, deleted := dirty.Len(), []int(nil)
				rng := rand.New(rand.NewSource(seed * 131))
				edit := func(base []string) []string {
					vals := append([]string(nil), base...)
					if col := rng.Intn(schema.Len()); rng.Intn(4) == 0 {
						vals[col] = fmt.Sprintf("novel-%d", rng.Intn(50))
					} else {
						vals[col] = pool[rng.Intn(len(pool))]
					}
					return vals
				}
				for step := 0; step < 12; step++ {
					n := 1 + rng.Intn(3)
					var muts []core.Mutation
					for range n {
						switch k := rng.Intn(4); {
						case k == 0 && len(rows) > n+1:
							id := anyKey(rows, rng)
							muts = append(muts, core.Mutation{Op: core.DeltaDelete, Row: id})
							delete(rows, id)
							deleted = append(deleted, id)
						case k == 1:
							id := next
							if len(deleted) > 0 && rng.Intn(2) == 0 {
								id = deleted[rng.Intn(len(deleted))]
							} else {
								next++
							}
							vals := edit(rows[anyKey(rows, rng)])
							muts = append(muts, core.Mutation{Op: core.DeltaPut, Row: id, Values: vals})
							rows[id] = vals
						default:
							id := anyKey(rows, rng)
							vals := edit(rows[id])
							muts = append(muts, core.Mutation{Op: core.DeltaPut, Row: id, Values: vals})
							rows[id] = vals
						}
					}
					res, _, err := eng.Apply(muts)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					check(fmt.Sprintf("step %d", step), res)
				}
			})
		}
	}
}

// TestRepairAttributionIsExact: two pieces of one rule whose values differ
// only in where a 0x1f falls — {"x\x1fy", "z"} and {"x", "y\x1fz"} — join to
// the same key. A repair into one of them must carry that piece's weight, not
// the other's: attribution resolves the repaired row on value IDs.
func TestRepairAttributionIsExact(t *testing.T) {
	schema := dataset.MustSchema("A", "B")
	dirty := dataset.NewTable(schema)
	for range 5 {
		dirty.MustAppend("x", "y\x1fz")
	}
	dirty.MustAppend("x", "w") // tuple 5: RSC rewrites its piece to {x, y␟z}
	for range 3 {
		dirty.MustAppend("x\x1fy", "z") // an uncontested group: weight 1
	}
	const rulesText = "FD: A -> B"
	rs, err := rules.ParseStrings(rulesText)
	if err != nil {
		t.Fatal(err)
	}

	// The weights of the two colliding pieces, read by exact values off an
	// independent stage I.
	ref := stageIBlocks(t, dirty, rs, core.Options{})
	weightOf := func(vals ...string) float64 {
		t.Helper()
		for _, p := range ref[0].Pieces() {
			if slices.Equal(p.Values(), vals) {
				return p.Weight
			}
		}
		t.Fatalf("no piece %q after stage I", vals)
		return 0
	}
	want, other := weightOf("x", "y\x1fz"), weightOf("x\x1fy", "z")
	if want == other {
		t.Fatalf("both colliding pieces weigh %v: the fixture cannot tell them apart", want)
	}

	srv := newTestServer(t, ManagerConfig{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}
	id := createSession(c, CreateRequest{Rules: rulesText, Attrs: schema.Attrs()}).ID
	submitBatches(c, id, splitRows(dirty, 1))
	startClean(c, id)
	pollDone(c, id)
	wantTrail := []Repair{{Tuple: 5, Attr: "B", Old: "w", New: "y\x1fz", Rule: rs[0].ID, Weight: want}}
	if got := getRepairs(c, id).Repairs; !reflect.DeepEqual(got, wantTrail) {
		t.Fatalf("trail = %+v, want %+v (the colliding piece weighs %v)", got, wantTrail, other)
	}
}
