package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/errgen"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// refAGPScan is AGP with the nearest-group search it had before agpSearch:
// every abnormal group measured against every normal group, in index order,
// no memo, merging each source as it is decided, in the order of all the
// sources' reasons. It is the oracle agp must match — the same merges into the block,
// the same trace, and (decisions, by group KeyID) the same target and
// distance per source. Groups order by their reasons under CompareKeys.
func refAGPScan(blockIdx int, b *index.Block, tau int, ev *distance.Evaluator, mergeCap float64, tr *Trace) (abnormal, abnormalPieces, promotions int, decisions map[uint32]agpBest) {
	decisions = make(map[uint32]agpBest)
	less := func(g, h *index.Group) bool {
		return index.CompareKeys(g.Dict(), g.ReasonIDs(), h.ReasonIDs()) < 0
	}
	if len(b.Groups) <= 1 {
		return
	}
	var abnormalGroups, normalGroups []*index.Group
	for _, g := range b.Groups {
		if g.TupleCount() <= tau {
			abnormalGroups = append(abnormalGroups, g)
		} else {
			normalGroups = append(normalGroups, g)
		}
	}
	if len(abnormalGroups) == 0 {
		return
	}
	if len(normalGroups) == 0 {
		sort.Slice(abnormalGroups, func(i, j int) bool {
			ti, tj := abnormalGroups[i].TupleCount(), abnormalGroups[j].TupleCount()
			if ti != tj {
				return ti > tj
			}
			return less(abnormalGroups[i], abnormalGroups[j])
		})
		normalGroups = abnormalGroups[:1]
		abnormalGroups = abnormalGroups[1:]
		promotions = 1
		promo := AGPMerge{
			BlockIndex:   blockIdx,
			RuleID:       b.Rule.ID,
			SourceKey:    normalGroups[0].Key(),
			SourcePieces: len(normalGroups[0].Pieces),
			Promoted:     true,
		}
		for _, p := range normalGroups[0].Pieces {
			promo.SourceTuples = append(promo.SourceTuples, p.TupleIDs...)
		}
		sort.Ints(promo.SourceTuples)
		tr.addAGP(promo)
		if len(abnormalGroups) == 0 {
			return
		}
	}
	sort.Slice(abnormalGroups, func(i, j int) bool { return less(abnormalGroups[i], abnormalGroups[j]) })

	type target struct {
		g   *index.Group
		ids []uint32
	}
	targets := make([]target, len(normalGroups))
	for i, g := range normalGroups {
		targets[i] = target{g: g, ids: g.Star().ValueIDs()}
	}
	for _, src := range abnormalGroups {
		star := src.Star()
		if star == nil {
			continue
		}
		sids := star.ValueIDs()
		best := -1
		bestD := math.Inf(1)
		for i := range targets {
			d := ev.ValuesBounded(sids, targets[i].ids, bestD)
			if d < bestD || (d == bestD && best >= 0 && less(targets[i].g, targets[best].g)) {
				bestD = d
				best = i
			}
		}
		merged := best >= 0 && bestD <= mergeCap*float64(maxRuneLen(ev, sids, targets[best].ids))
		if best >= 0 {
			decisions[src.KeyID()] = agpBest{srcKid: star.KeyID(), target: targets[best].g.KeyID(), d: bestD, merged: merged}
		}
		abnormal++
		abnormalPieces += len(src.Pieces)
		merge := AGPMerge{
			BlockIndex:   blockIdx,
			RuleID:       b.Rule.ID,
			SourceKey:    src.Key(),
			SourcePieces: len(src.Pieces),
		}
		for _, p := range src.Pieces {
			merge.SourceTuples = append(merge.SourceTuples, p.TupleIDs...)
		}
		sort.Ints(merge.SourceTuples)
		if merged {
			merge.TargetKey = targets[best].g.Key()
			b.MergeGroups(src, targets[best].g)
		}
		tr.addAGP(merge)
	}
	b.DropEmpty()
	return abnormal, abnormalPieces, promotions, decisions
}

// blockShape flattens a block to what AGP can change about it: the groups in
// order, each with its reason and its pieces' identities and tuple lists.
func blockShape(b *index.Block) []string {
	var out []string
	for _, g := range b.Groups {
		s := fmt.Sprint(g.ReasonIDs(), ":")
		for _, p := range g.Pieces {
			s += fmt.Sprintf(" %d%v", p.KeyID(), p.TupleIDs)
		}
		out = append(out, s)
	}
	return out
}

// agpCost is what one agp call measured.
type agpCost struct{ sources, pairs, fullScans int }

// checkAGPAgainstScan builds rule r's block over tb twice (same dictionary,
// so key IDs are comparable), runs agp on one — on a crew of three — and
// refAGPScan on the other,
// and fails on any difference in counters, trace, resulting block or — when
// no group was promoted, so the memo records them — per-source decisions.
// memo is agp's cross-rebuild cache; nil takes a throwaway one.
func checkAGPAgainstScan(t *testing.T, label string, tb *dataset.Table, dict *intern.Dict, r *rules.Rule, tau int, metric distance.Metric, mergeCap float64, memo *agpMemo) agpCost {
	t.Helper()
	enc := dataset.Encode(tb, dict)
	got, want := index.BuildBlockFor(tb, enc, r), index.BuildBlockFor(tb, enc, r)
	if memo == nil {
		memo = &agpMemo{}
	}
	gotTr, wantTr := &Trace{}, &Trace{}
	// Two parked helpers: the searches run spread over three evaluators.
	c, stop := helpedCrew(metric, dict, 2)
	defer stop()
	ab, abP, promo, pairs, fullScans := agp(3, got, tau, c, mergeCap, memo, gotTr)
	wab, wabP, wpromo, decisions := refAGPScan(3, want, tau, distance.NewEvaluator(metric, dict), mergeCap, wantTr)
	if ab != wab || abP != wabP || promo != wpromo {
		t.Fatalf("%s: counters (%d, %d, %d), scan (%d, %d, %d)", label, ab, abP, promo, wab, wabP, wpromo)
	}
	if !reflect.DeepEqual(gotTr.AGP, wantTr.AGP) {
		t.Fatalf("%s: trace diverges:\ngot  %+v\nscan %+v", label, gotTr.AGP, wantTr.AGP)
	}
	if g, w := blockShape(got), blockShape(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: block diverges:\ngot  %q\nscan %q", label, g, w)
	}
	if promo == 0 && ab > 0 {
		for src, w := range decisions {
			// The distance is a sum of small integers (or of cosine terms
			// added in one fixed attribute order), so == is exact.
			if g := memo.best[src]; g != w {
				t.Fatalf("%s: source %d decided %+v, scan %+v", label, src, g, w)
			}
		}
		if len(memo.best) != len(decisions) {
			t.Fatalf("%s: memo holds %d decisions, scan made %d", label, len(memo.best), len(decisions))
		}
	}
	return agpCost{sources: ab, pairs: pairs, fullScans: fullScans}
}

// seqOf is the sequence key of vals in d: the KeyID of a group whose
// reason they are.
func seqOf(d *intern.Dict, vals ...string) uint32 {
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		ids[i] = d.Intern(v)
	}
	return d.Seq(ids)
}

// agpTable builds a table whose rows are the given value tuples, each
// repeated `times[i]` times.
func agpTable(attrs []string, rows [][]string, times []int) *dataset.Table {
	tb := dataset.NewTable(dataset.MustSchema(attrs...))
	for i, row := range rows {
		for n := 0; n < times[i]; n++ {
			tb.MustAppend(row...)
		}
	}
	return tb
}

// TestAGPSearchAdversarial: hand-built blocks around the points where a
// pruned search could go wrong. The rule is FD: A, B -> C, so γ⋆ has k = 3
// positions and the group key is (A, B); the one abnormal source is
// (bb, bb, cc) and every other row is a normal group (τ = 1, two tuples).
func TestAGPSearchAdversarial(t *testing.T) {
	src := []string{"bb", "bb", "cc"}
	reason := func(a, b string) []string { return []string{a, b} }
	cases := []struct {
		name      string
		metric    distance.Metric
		targets   [][]string
		want      []string // merge target's reason
		pairs     int
		fullScans int
	}{
		{
			// The best sharing target sits at distance exactly k; a target
			// sharing nothing ties with it and has the smaller key. The bound
			// is strict, so class 0 is scanned and the tie goes to the key.
			name: "non-sharing target ties at distance k with the smaller key",
			targets: [][]string{
				{"zz", "bz", "cc"}, // shares C; 2 + 1 + 0 = 3
				{"ab", "ab", "cd"}, // shares nothing; 1 + 1 + 1 = 3
			},
			want: reason("ab", "ab"), pairs: 2, fullScans: 1,
		},
		{
			// Same shape one class up: bestD == k−m == 2 on entering m = 1.
			name: "class-1 target ties at distance 2 with the smaller key",
			targets: [][]string{
				{"zz", "bb", "cc"}, // shares B, C; 2
				{"ab", "ab", "cc"}, // shares C; 1 + 1 = 2
				{"qq", "qq", "qq"}, // shares nothing; 6 — never measured
			},
			want: reason("ab", "ab"), pairs: 2, fullScans: 0,
		},
		{
			// bestD one under the boundary: 1 < 2, so class 1 is not entered.
			name: "best strictly under the class-1 bound stops the search",
			targets: [][]string{
				{"bz", "bb", "cc"}, // shares B, C; 1
				{"ab", "ab", "cc"}, // shares C; 2 — never measured
				{"ab", "ac", "cd"}, // shares nothing; 3 — never measured
			},
			want: reason("bz", "bb"), pairs: 1, fullScans: 0,
		},
		{
			// bestD == 2 after class 1 is under class 0's bound of 3.
			name: "best strictly under the class-0 bound skips the scan",
			targets: [][]string{
				{"ab", "ab", "cc"}, // shares C; 2
				{"ab", "ac", "cd"}, // shares nothing; 3 — never measured
			},
			want: reason("ab", "ab"), pairs: 1, fullScans: 0,
		},
		{
			name: "all-distinct values fall back to the scan",
			targets: [][]string{
				{"ab", "ab", "cd"}, // 3
				{"xb", "yb", "zc"}, // 3, larger key
				{"qq", "qq", "qq"}, // 6
			},
			want: reason("ab", "ab"), pairs: 3, fullScans: 1,
		},
		{
			// δ = 0: shared values say nothing about the rest, every target
			// is measured however many positions it shares.
			name:   "cosine measures every target",
			metric: distance.Cosine{},
			targets: [][]string{
				{"bz", "bb", "cc"},
				{"ab", "ab", "cc"},
				{"qq", "qq", "qq"},
			},
			want: reason("bz", "bb"), pairs: 3, fullScans: 1,
		},
	}
	rule := rules.MustParseStrings("FD: A, B -> C")[0]
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metric := tc.metric
			if metric == nil {
				metric = distance.Levenshtein{}
			}
			rows, times := [][]string{src}, []int{1}
			for _, tg := range tc.targets {
				rows, times = append(rows, tg), append(times, 2)
			}
			memo, dict := &agpMemo{}, intern.NewDict()
			cost := checkAGPAgainstScan(t, tc.name, agpTable([]string{"A", "B", "C"}, rows, times),
				dict, rule, 1, metric, 1e9, memo)
			if got, want := memo.best[seqOf(dict, src[:2]...)].target, seqOf(dict, tc.want...); got != want {
				t.Errorf("merged into group %d, want %d (%q)", got, want, tc.want)
			}
			if cost.pairs != tc.pairs || cost.fullScans != tc.fullScans {
				t.Errorf("measured %d pairs, %d full scans; want %d, %d", cost.pairs, cost.fullScans, tc.pairs, tc.fullScans)
			}
		})
	}
}

// TestAGPSearchLossyDecoding: two different strings that decode to the same
// runes are distance 0 apart, so a source holding such a value cannot lower-
// bound its unshared attributes. "x\xfe" shares nothing with the source but
// ties with the sharing target at distance 1 and has the smaller key.
func TestAGPSearchLossyDecoding(t *testing.T) {
	tb := agpTable([]string{"A", "B"}, [][]string{
		{"x\xff", "v"},
		{"y\xff", "v"}, // shares B; 1 + 0
		{"x\xfe", "w"}, // shares nothing; 0 + 1
	}, []int{1, 2, 2})
	memo, dict := &agpMemo{}, intern.NewDict()
	cost := checkAGPAgainstScan(t, "lossy", tb, dict, rules.MustParseStrings("FD: A -> B")[0],
		1, distance.Levenshtein{}, 1e9, memo)
	if got, want := memo.best[seqOf(dict, "x\xff")].target, seqOf(dict, "x\xfe"); got != want {
		t.Errorf("merged into group %d, want %d", got, want)
	}
	if cost.fullScans != 1 {
		t.Errorf("full scans = %d, want 1", cost.fullScans)
	}
}

// TestAGPSearchPromotion: with no normal group the largest abnormal one is
// promoted and the rest are searched against it alone.
func TestAGPSearchPromotion(t *testing.T) {
	tb := agpTable([]string{"A", "B"}, [][]string{
		{"DOTHAN", "AL"}, {"DOTHAM", "AL"}, {"BOAZ", "AK"}, {"BOAS", "AL"},
	}, []int{2, 1, 1, 1})
	cost := checkAGPAgainstScan(t, "promotion", tb, intern.NewDict(), rules.MustParseStrings("FD: A -> B")[0],
		2, distance.Levenshtein{}, 1e9, nil)
	if cost.sources != 3 || cost.pairs != 3 {
		t.Errorf("searched %d sources over %d pairs, want 3 over 3", cost.sources, cost.pairs)
	}
}

// TestAGPSearchCountersReachInstruments: what the search cost travels on the
// block result into the process-wide counters a scrape reads, on the batch
// path and on a delta rebuild alike.
func TestAGPSearchCountersReachInstruments(t *testing.T) {
	// One abnormal source, one normal group it shares B with at distance 1
	// (measured, and good enough to stop), one it shares nothing with.
	tb := agpTable([]string{"A", "B"}, [][]string{
		{"corex", "v"}, {"corea", "v"}, {"zzzzz", "w"},
	}, []int{1, 3, 3})
	rs := rules.MustParseStrings("FD: A -> B")
	pairs, scans := mAGPPairs.Value(), mAGPFullScans.Value()
	if _, err := Clean(tb, rs, Options{Tau: 1}); err != nil {
		t.Fatal(err)
	}
	if dp, ds := mAGPPairs.Value()-pairs, mAGPFullScans.Value()-scans; dp != 1 || ds != 0 {
		t.Errorf("clean moved pairs by %d and full scans by %d, want 1 and 0", dp, ds)
	}

	eng, err := NewDeltaCleaner(tb.Schema, rs, Options{Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(tb); err != nil {
		t.Fatal(err)
	}
	pairs, scans = mAGPPairs.Value(), mAGPFullScans.Value()
	// A new source that shares nothing with either normal group scans both;
	// "corex" reuses its decision and measures nothing.
	if _, _, err := eng.Apply([]Mutation{{Op: DeltaPut, Row: 100, Values: []string{"qqqqq", "u"}}}); err != nil {
		t.Fatal(err)
	}
	if dp, ds := mAGPPairs.Value()-pairs, mAGPFullScans.Value()-scans; dp != 2 || ds != 1 {
		t.Errorf("delta rebuild moved pairs by %d and full scans by %d, want 2 and 1", dp, ds)
	}
}

// randomAGPTable draws a table over tiny alphabets so that groups share
// values, distances tie, and the best distance lands on the class bounds.
// Every so often a cell holds U+FFFD or bytes that decode to it.
func randomAGPTable(rng *rand.Rand, attrs []string) *dataset.Table {
	word := func() string {
		if rng.Intn(40) == 0 {
			return []string{"\xff", "\xfe", "�", "é", "a\xff"}[rng.Intn(5)]
		}
		b := make([]byte, 1+rng.Intn(3))
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		return string(b)
	}
	distinct := 4 + rng.Intn(30)
	rows := make([][]string, distinct)
	times := make([]int, distinct)
	for i := range rows {
		rows[i] = make([]string, len(attrs))
		for j := range rows[i] {
			rows[i][j] = word()
		}
		times[i] = 1 + rng.Intn(4)
	}
	return agpTable(attrs, rows, times)
}

func TestAGPSearchMatchesScanRandom(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	ruleSets := rules.MustParseStrings("FD: A -> B", "FD: A, B -> C", "FD: A, B, C -> D")
	rng := rand.New(rand.NewSource(19))
	var total agpCost
	for round := 0; round < 400; round++ {
		tb := randomAGPTable(rng, attrs)
		r := ruleSets[rng.Intn(len(ruleSets))]
		var metric distance.Metric = distance.Levenshtein{}
		if round%5 == 4 {
			metric = distance.Cosine{}
		}
		mergeCap := 1e9
		if round%3 == 0 {
			mergeCap = 0.4 // the default: some sources stay unmerged
		}
		cost := checkAGPAgainstScan(t, fmt.Sprintf("round %d (%s)", round, r.ID), tb, intern.NewDict(),
			r, rng.Intn(4), metric, mergeCap, nil)
		total.sources += cost.sources
		total.pairs += cost.pairs
		total.fullScans += cost.fullScans
	}
	if total.fullScans == 0 || total.fullScans == total.sources {
		t.Errorf("%d of %d sources scanned everything: the grid must exercise both the pruned and the full search",
			total.fullScans, total.sources)
	}
}

// TestAGPMemoRebuildSequence drives one block through a sequence of rebuilds
// with a persistent memo, the way a DeltaCleaner does: every rebuild mixes
// sources with a reusable decision, targets that moved, and new sources, and
// each must equal a from-scratch scan. The memo never holds more than the
// rebuild's own sources.
func TestAGPMemoRebuildSequence(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	rule := rules.MustParseStrings("FD: A, B -> C")[0]
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := randomAGPTable(rng, attrs)
		dict := intern.NewDict()
		memo := &agpMemo{}
		reused := 0
		for step := 0; step < 25; step++ {
			// One mutation: rewrite a cell, or append a tuple that is a
			// one-cell variation of an existing one.
			row := rng.Intn(tb.Len())
			vals := append([]string(nil), tb.Tuples[row].Values...)
			vals[rng.Intn(len(vals))] = []string{"a", "ab", "abc", "b", "cb", fmt.Sprintf("n%d", step)}[rng.Intn(6)]
			if rng.Intn(3) == 0 {
				tb.MustAppend(vals...)
			} else {
				tb.Tuples[row].Values = vals
			}
			label := fmt.Sprintf("seed %d step %d", seed, step)
			cost := checkAGPAgainstScan(t, label, tb, dict, rule, 1, distance.Levenshtein{}, 1e9, memo)
			if len(memo.best) > cost.sources {
				t.Fatalf("%s: memo holds %d decisions for %d sources", label, len(memo.best), cost.sources)
			}
			if cost.sources > 0 && cost.fullScans == 0 && cost.pairs < cost.sources {
				reused++ // some source measured nothing at all: a pure reuse
			}
		}
		if reused == 0 {
			t.Errorf("seed %d: no rebuild reused a decision — the sequence does not exercise the memo", seed)
		}
	}
}

// TestDeltaAGPMemoBounded: a served session fed a fresh typo per mutation
// must not accumulate AGP decisions — each block's memo is bounded by the
// abnormal groups of its last rebuild — while every result stays identical
// to a from-scratch clean.
func TestDeltaAGPMemoBounded(t *testing.T) {
	dirty, rs := carDirty(t, 120, 11)
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
	// "Model" is a reason attribute of FD: Model, Type -> Make.
	modelPos := dirty.Schema.MustIndex("Model")
	rng := rand.New(rand.NewSource(11))
	seen := 0
	for step := 0; step < 200; step++ {
		id := dirty.Tuples[rng.Intn(dirty.Len())].ID
		vals := append([]string(nil), rows[id]...)
		vals[modelPos] = fmt.Sprintf("%s~%d", vals[modelPos], step)
		rows[id] = vals
		res, _, err := eng.Apply([]Mutation{{Op: DeltaPut, Row: id, Values: vals}})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for ri, db := range eng.blocks {
			if db.memo == nil {
				continue
			}
			if n := len(db.memo.agp.best); n > db.res.abnormal {
				t.Fatalf("step %d: rule %d memo holds %d decisions, its last rebuild had %d abnormal groups",
					step, ri, n, db.res.abnormal)
			}
			seen = max(seen, len(db.memo.agp.best))
		}
		if step%20 == 19 {
			assertParity(t, fmt.Sprintf("step %d", step), res, eng.Weights(), refTable(dirty.Schema, rows), rs, Options{})
		}
	}
	if seen == 0 {
		t.Error("no block ever memoized a decision: the sequence does not exercise the memo")
	}
}

// haiBlocks builds the index of the benchmark's solo-hai lane 0 at seed 42:
// HAI 300 providers × 14 measures, 15 % errors.
func haiBlocks(tb testing.TB) *index.Index {
	tb.Helper()
	const seed = 4200
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 300, Measures: 14, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.15, ReplacementRatio: 0.5, Seed: seed*1_000_003 + 17})
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := index.Build(inj.Dirty, rs)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// BenchmarkAGPBlock runs AGP (τ = 3) over every block of the HAI 300×14
// table with one cold evaluator, as one worker of a clean would: ns/op is per
// pass over the table, pairs/op and fullscans/op what the search measured.
// Rebuilding the index AGP consumed is outside the timer.
func BenchmarkAGPBlock(b *testing.B) {
	opts := Options{Tau: 3}.withDefaults()
	var sources, pairs, fullScans int
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		ix := haiBlocks(b)
		b.StartTimer()
		sources, pairs, fullScans = 0, 0, 0
		ev := distance.NewEvaluator(opts.Metric, ix.Dict())
		for bi, blk := range ix.Blocks {
			ab, _, _, p, f := agp(bi, blk, opts.Tau, soloCrew(ev), opts.MergeCapRatio, nil, nil)
			sources, pairs, fullScans = sources+ab, pairs+p, fullScans+f
		}
	}
	b.ReportMetric(float64(sources), "sources/op")
	b.ReportMetric(float64(pairs), "pairs/op")
	b.ReportMetric(float64(fullScans), "fullscans/op")
}
