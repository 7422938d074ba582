package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// keptAGP is one block kept by an editor across edits of its table, with
// the delta engine's AGP state over it, the way a DeltaCleaner keeps each
// rule's block.
type keptAGP struct {
	e    *index.BlockEditor
	memo agpMemo
	rows map[int][]uint32 // each tuple's row as the editor last took it
}

// sync brings the editor to tb, whose tuple IDs ascend and whose tuples
// are only ever rewritten or appended: every new or rewritten row is moved
// into it.
func (k *keptAGP) sync(tb *dataset.Table, enc *dataset.Encoded, r *rules.Rule) {
	if k.e == nil {
		k.e, k.rows = index.NewBlockEditor(tb, enc, r), make(map[int][]uint32)
		for i, tp := range tb.Tuples {
			k.rows[tp.ID] = enc.Rows[i]
		}
		return
	}
	for i, tp := range tb.Tuples {
		was, ok := k.rows[tp.ID]
		if row := enc.Rows[i]; !ok || !slices.Equal(was, row) {
			k.e.Move(tp.ID, was, row)
			k.rows[tp.ID] = row
		}
	}
}

// checkAGPAgainstScan builds rule r's block over tb twice (same dictionary,
// so key IDs are comparable), runs agp on one — on a crew of three — and
// refAGPScan on the other, and fails on any difference in counters, trace
// or resulting block. Then the delta engine's decision (agpMemo.decide) on
// ks, brought to tb, must give the same counters and, merged into a copy
// of the kept block, the same block; and, when no group was promoted, so
// the memo records them, the same per-source decisions. ks carries the
// kept block and its AGP state across calls; nil takes a throwaway one. A
// state not yet synced decides from scratch, so its decision must also
// measure the pairs and full scans agp measured. The costs returned are the
// delta decision's.
func checkAGPAgainstScan(t *testing.T, label string, tb *dataset.Table, dict *intern.Dict, r *rules.Rule, tau int, metric distance.Metric, mergeCap float64, ks *keptAGP) agpCost {
	t.Helper()
	enc := dataset.Encode(tb, dict)
	got, want := index.BuildBlockFor(tb, enc, r), index.BuildBlockFor(tb, enc, r)
	gotTr, wantTr := &Trace{}, &Trace{}
	// Two parked helpers: the searches run spread over three evaluators.
	c, stop := helpedCrew(metric, dict, 2)
	defer stop()
	ab, abP, promo, pairs, fullScans := agp(3, got, tau, c, mergeCap, gotTr)
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
	// A merge appends the source's pieces (Block.MergeGroups): groups have
	// distinct reasons, so no group ends up with one piece twice.
	for _, g := range got.Groups {
		seen := make(map[uint32]bool, len(g.Pieces))
		for _, p := range g.Pieces {
			if seen[p.KeyID()] {
				t.Fatalf("%s: group %v holds two pieces of KeyID %d after agp", label, g.ReasonIDs(), p.KeyID())
			}
			seen[p.KeyID()] = true
		}
	}

	if ks == nil {
		ks = &keptAGP{}
	}
	fresh := ks.e == nil
	ks.sync(tb, enc, r)
	p := ks.memo.decide(3, ks.e, tau, c, mergeCap)
	ks.e.ClearTouched()
	if p.abnormal != wab || p.abnormalPieces != wabP || p.promotions != wpromo {
		t.Fatalf("%s: delta counters (%d, %d, %d), scan (%d, %d, %d)", label, p.abnormal, p.abnormalPieces, p.promotions, wab, wabP, wpromo)
	}
	if fresh && (p.pairs != pairs || p.fullScans != fullScans) {
		t.Fatalf("%s: a fresh delta decision measured %d pairs and %d full scans, agp %d and %d", label, p.pairs, p.fullScans, pairs, fullScans)
	}
	merged := &index.Block{Rule: r, Groups: index.CopyGroups(ks.e.Block().Groups)}
	agpMerge(merged, &p)
	if g, w := blockShape(merged), blockShape(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: the delta decision's block diverges:\ngot  %q\nscan %q", label, g, w)
	}
	if promo == 0 && ab > 0 {
		for src, w := range decisions {
			// The distance is a sum of small integers (or of cosine terms
			// added in one fixed attribute order), so == is exact.
			if g := ks.memo.best[src]; g != w {
				t.Fatalf("%s: source %d decided %+v, scan %+v", label, src, g, w)
			}
		}
		if len(ks.memo.best) != len(decisions) {
			t.Fatalf("%s: memo holds %d decisions, scan made %d", label, len(ks.memo.best), len(decisions))
		}
	}
	return agpCost{sources: ab, pairs: p.pairs, fullScans: p.fullScans}
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
			ks, dict := &keptAGP{}, intern.NewDict()
			cost := checkAGPAgainstScan(t, tc.name, agpTable([]string{"A", "B", "C"}, rows, times),
				dict, rule, 1, metric, 1e9, ks)
			if got, want := ks.memo.best[seqOf(dict, src[:2]...)].target, seqOf(dict, tc.want...); got != want {
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
	ks, dict := &keptAGP{}, intern.NewDict()
	cost := checkAGPAgainstScan(t, "lossy", tb, dict, rules.MustParseStrings("FD: A -> B")[0],
		1, distance.Levenshtein{}, 1e9, ks)
	if got, want := ks.memo.best[seqOf(dict, "x\xff")].target, seqOf(dict, "x\xfe"); got != want {
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

// TestAGPTableSearchMatchesScan: the search through the per-position
// distance tables returns the exhaustive scan's (distance, reason) minimum,
// the same target at the bit-identical distance, both for a source that
// searches every target and for a source whose kept decision only fresh
// targets may challenge, as agpMemo.decide keeps one; both kinds run mixed
// on one crew through agpSearch.run, so a searcher takes sources of either
// kind one after another. Each position draws from two to four values, so
// targets repeat values heavily and distances tie, which only compareGroups
// settles; some values hold U+FFFD (δ = 0 for a source holding one), some
// rounds run cosine, whose sums keep position order, and between runs a
// kept agpMemo's targets move through file, unfile and drop, as the delta
// engine moves them: a decision whose target moved is searched again, and
// every other one is challenged by the targets added or given a new γ⋆.
func TestAGPTableSearchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	words := []string{"a", "b", "ab", "ba", "abc", "cab", "bca", "\xff", "\ufffd"}
	// Cosine words share bigrams in uneven counts, so their distances are
	// irrational and a sum's rounding depends on its order.
	cosWords := []string{"ab", "abc", "abab", "abcab", "bcab", "aab", "cabb", "\xff", "\ufffd"}
	rule := rules.MustParseStrings("FD: R -> V")[0]
	var sources, ties, cosine, lossy, won int
	for round := 0; round < 150; round++ {
		dict := intern.NewDict()
		var metric distance.Metric = distance.Levenshtein{}
		vocab := words
		if round%5 == 4 {
			metric, vocab = distance.Cosine{}, cosWords
		}
		// Groups with distinct reasons to hang the targets on, in no order.
		rows := make([][]string, 48)
		for i := range rows {
			rows[i] = []string{fmt.Sprintf("g%02d", i), "v"}
		}
		tb := agpTable([]string{"R", "V"}, rows, slices.Repeat([]int{1}, len(rows)))
		groups := index.BuildBlockFor(tb, dataset.Encode(tb, dict), rule).Groups
		rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
		k := 1 + rng.Intn(4)
		if round%5 == 4 {
			k = 3 + rng.Intn(2) // a sum of two is the same float in either order
		}
		pool := make([][]uint32, k)
		for p := range pool {
			for range 2 + rng.Intn(3) {
				w := vocab[rng.Intn(7)]
				if rng.Intn(15) == 0 {
					w = vocab[7+rng.Intn(2)]
				}
				pool[p] = append(pool[p], dict.Intern(w))
			}
		}
		draw := func() []uint32 {
			ids := make([]uint32, k)
			for p := range ids {
				ids[p] = pool[p][rng.Intn(len(pool[p]))]
			}
			return ids
		}
		// A cosine source draws from all the words, so that it seldom
		// matches a target at a position and sums several irrational
		// distances.
		source := draw
		if round%5 == 4 {
			source = func() []uint32 {
				ids := make([]uint32, k)
				for p := range ids {
					ids[p] = dict.Intern(vocab[rng.Intn(len(vocab))])
				}
				return ids
			}
		}
		c, stop := soloCrew(distance.NewEvaluator(metric, dict)), func() {}
		if round%4 == 1 {
			c, stop = helpedCrew(metric, dict, 2)
		}

		// fresh and stale name, by group KeyID, the targets added or given
		// a new γ⋆ and those dropped or given a new γ⋆ since the last run.
		m := agpMemo{at: make(map[uint32]int32)}
		fresh, stale := make(map[uint32]bool), make(map[uint32]bool)
		next := 0
		add := func() {
			g := groups[next]
			next++
			m.at[g.KeyID()] = int32(len(m.search.targets))
			m.search.targets = append(m.search.targets, agpTarget{g: g, ids: draw()})
			m.search.file(int32(len(m.search.targets) - 1))
			fresh[g.KeyID()] = true
		}
		for n := 4 + rng.Intn(len(groups)/2); next < n; {
			add()
		}
		type decision struct {
			star   *index.Piece
			target uint32 // the best target's group KeyID
			d      float64
		}
		var kept []decision
		ev := distance.NewEvaluator(metric, dict)
		for step := 0; step < 8; step++ {
			for range rng.Intn(3) {
				t := int32(rng.Intn(len(m.search.targets)))
				kid := m.search.targets[t].g.KeyID()
				switch {
				case rng.Intn(3) == 0 && next < len(groups):
					add()
				case rng.Intn(2) == 0 && len(m.search.targets) > 1:
					m.drop(kid, t)
					stale[kid] = true
					delete(fresh, kid)
				default:
					m.search.unfile(t)
					m.search.targets[t].ids = draw()
					m.search.file(t)
					fresh[kid], stale[kid] = true, true
				}
			}
			// The kept decisions, a new source searching after each.
			var jobs []agpJob
			for _, dc := range kept {
				j := agpJob{star: dc.star, best: -1}
				if !stale[dc.target] {
					j.best, j.d = int(m.at[dc.target]), dc.d
				}
				jobs = append(jobs, j, agpJob{star: index.NewPieceIDs(rule, dict, source(), 1), best: -1})
			}
			for len(jobs) < 12 {
				jobs = append(jobs, agpJob{star: index.NewPieceIDs(rule, dict, source(), 1), best: -1})
			}
			var challengers []int
			for kid := range fresh {
				challengers = append(challengers, int(m.at[kid]))
			}
			slices.Sort(challengers)
			was := slices.Clone(jobs)
			m.search.run(c, jobs, challengers)

			kept = kept[:0]
			for i, j := range jobs {
				sids := j.star.ValueIDs()
				// The exhaustive scan in target order; settled says a later
				// target took the minimum on its reason alone.
				best, bestD, settled := -1, math.Inf(1), false
				for ti, tg := range m.search.targets {
					d := ev.ValuesBounded(sids, tg.ids, math.Inf(1))
					switch {
					case d < bestD:
						best, bestD, settled = ti, d, false
					case d == bestD && compareGroups(tg.g, m.search.targets[best].g) < 0:
						best, settled = ti, true
					}
				}
				kind := "searched"
				if was[i].best >= 0 {
					kind = fmt.Sprintf("challenged by %d targets", len(challengers))
				}
				if j.best != best || math.Float64bits(j.d) != math.Float64bits(bestD) {
					t.Fatalf("round %d step %d: source %v %s: tables found target %d at %v, the exhaustive scan %d at %v",
						round, step, sids, kind, j.best, j.d, best, bestD)
				}
				sources++
				if settled {
					ties++
				}
				if was[i].best >= 0 && len(challengers) > 0 {
					if !ev.Integral() {
						cosine++
					} else if slices.ContainsFunc(sids, func(id uint32) bool { return ev.MinDistinct(id) == 0 }) {
						lossy++
					}
					if was[i].best != j.best {
						won++
					}
				}
				if len(kept) < 12 {
					kept = append(kept, decision{star: j.star, target: m.search.targets[j.best].g.KeyID(), d: j.d})
				}
			}
			clear(fresh)
			clear(stale)
		}
		stop()
	}
	t.Logf("%d sources, %d with a tie only a reason settled; challenged: %d under cosine, %d holding U+FFFD, %d won by a challenger",
		sources, ties, cosine, lossy, won)
	if ties < 1000 || cosine < 200 || lossy < 100 || won < 100 {
		t.Errorf("the grid must exercise ties, and challenges under cosine, with U+FFFD values and won by a challenger")
	}
}

// TestAGPMemoRebuildSequence drives one kept block through a sequence of
// edits with a persistent AGP state, the way a DeltaCleaner does: every
// re-clean mixes sources with a reusable decision, targets that moved, and
// new sources, and each must equal a from-scratch scan. The memo never
// holds more than the re-clean's own sources.
func TestAGPMemoRebuildSequence(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	rule := rules.MustParseStrings("FD: A, B -> C")[0]
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := randomAGPTable(rng, attrs)
		dict := intern.NewDict()
		ks := &keptAGP{}
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
			cost := checkAGPAgainstScan(t, label, tb, dict, rule, 1, distance.Levenshtein{}, 1e9, ks)
			if len(ks.memo.best) > cost.sources {
				t.Fatalf("%s: memo holds %d decisions for %d sources", label, len(ks.memo.best), cost.sources)
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
			assertParity(t, fmt.Sprintf("step %d", step), res, blocksOf(eng, nil), refTable(dirty.Schema, rows), rs, Options{})
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
	return laneBlocks(tb, truth, rs, 0.15, seed)
}

// carBlocks builds the index of the benchmark's solo-car lane 0 at seed 42:
// CAR 30,000 rows, 5 % errors.
func carBlocks(tb testing.TB) *index.Index {
	tb.Helper()
	const seed = 4200
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: 30000, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return laneBlocks(tb, truth, rs, 0.05, seed)
}

// laneBlocks injects errors into truth as the benchmark's lane of that seed
// does and indexes the dirty table.
func laneBlocks(tb testing.TB, truth *dataset.Table, rs []*rules.Rule, rate float64, seed int64) *index.Index {
	tb.Helper()
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: rate, ReplacementRatio: 0.5, Seed: seed*1_000_003 + 17})
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := index.Build(inj.Dirty, rs)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// BenchmarkAGPBlock runs AGP over every block of a benchmark lane's table
// with one cold evaluator, as one worker of a clean would: hai is solo-hai's
// HAI 300×14 at τ = 3, car solo-car's CAR 30k at τ = 2, and car-cosine the
// same CAR block under the cosine metric (Table 5), where no class can be
// skipped and the tables sum in position order. ns/op is per pass over the
// table; pairs/op counts the γ⋆ pairs judged, fullscans/op the sources that
// reached the targets sharing nothing with them, and dists/op the distances
// the per-position tables measured. Rebuilding the index AGP consumed is
// outside the timer.
func BenchmarkAGPBlock(b *testing.B) {
	for _, lane := range []struct {
		name   string
		tau    int
		blocks func(testing.TB) *index.Index
		metric distance.Metric
	}{
		{"hai", 3, haiBlocks, distance.Levenshtein{}},
		{"car", 2, carBlocks, distance.Levenshtein{}},
		{"car-cosine", 2, carBlocks, distance.Cosine{}},
	} {
		b.Run(lane.name, func(b *testing.B) {
			opts := Options{Tau: lane.tau, Metric: lane.metric}.withDefaults()
			var sources, pairs, fullScans, dists int
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				ix := lane.blocks(b)
				b.StartTimer()
				sources, pairs, fullScans, dists = 0, 0, 0, 0
				ev := distance.NewEvaluator(opts.Metric, ix.Dict())
				for bi, blk := range ix.Blocks {
					p := agpDecide(bi, blk, opts.Tau, soloCrew(ev), opts.MergeCapRatio, nil)
					agpMerge(blk, &p)
					sources, pairs, fullScans, dists = sources+p.abnormal, pairs+p.pairs, fullScans+p.fullScans, dists+p.dists
				}
			}
			b.ReportMetric(float64(sources), "sources/op")
			b.ReportMetric(float64(pairs), "pairs/op")
			b.ReportMetric(float64(fullScans), "fullscans/op")
			b.ReportMetric(float64(dists), "dists/op")
		})
	}
}
