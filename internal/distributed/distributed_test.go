package distributed

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/errgen"
	"mlnclean/internal/eval"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

func randomTable(seed int64, rows int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	letters := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < rows; i++ {
		tb.MustAppend(letters[rng.Intn(len(letters))], letters[rng.Intn(len(letters))])
	}
	return tb
}

// partitionTable runs Algorithm 3 on a table the way Clean does: its rows
// encoded into a fresh dictionary, distances measured over the value IDs.
func partitionTable(tb *dataset.Table, k int, metric distance.Metric, seed int64) ([][]int, error) {
	enc := dataset.Encode(tb, nil)
	parts, _, _, err := partition(enc.Rows, k, distance.NewEvaluator(metric, enc.Dict), rand.New(rand.NewSource(seed)))
	return parts, err
}

// TestPartitionCompleteAndBalanced: every tuple lands in exactly one part
// and no part exceeds ⌈|T|/k⌉.
func TestPartitionCompleteAndBalanced(t *testing.T) {
	f := func(seed int64, rowsRaw, kRaw uint8) bool {
		rows := int(rowsRaw%60) + 1
		k := int(kRaw%6) + 1
		tb := randomTable(seed, rows)
		parts, err := partitionTable(tb, k, distance.Levenshtein{}, seed)
		if err != nil {
			return false
		}
		if k > rows {
			k = rows
		}
		capacity := (rows + k - 1) / k
		var ids []int
		for _, p := range parts {
			if len(p) > capacity {
				return false
			}
			for _, pos := range p {
				ids = append(ids, tb.Tuples[pos].ID)
			}
		}
		if len(ids) != rows {
			return false
		}
		sort.Ints(ids)
		for i, id := range ids {
			if i != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartitionValidation(t *testing.T) {
	tb := randomTable(1, 10)
	if _, err := partitionTable(tb, 0, distance.Levenshtein{}, 1); err == nil {
		t.Error("k=0 should fail")
	}
	empty := dataset.NewTable(tb.Schema)
	if _, err := partitionTable(empty, 2, distance.Levenshtein{}, 1); err == nil {
		t.Error("empty table should fail")
	}
	// k larger than |T| clamps.
	parts, err := partitionTable(tb, 50, distance.Levenshtein{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 10 {
		t.Errorf("parts = %d, want clamped to 10", len(parts))
	}
}

func TestPartitionDeterminism(t *testing.T) {
	tb := randomTable(3, 40)
	a, _ := partitionTable(tb, 4, distance.Levenshtein{}, 9)
	b, _ := partitionTable(tb, 4, distance.Levenshtein{}, 9)
	if len(a) != 4 || !reflect.DeepEqual(a, b) {
		t.Fatalf("parts differ across identical seeds: %v vs %v", a, b)
	}
}

// refPartition is Algorithm 3 as it stood over strings — a |T|×k matrix of
// attribute-wise metric.Distance sums, one per (tuple, centroid) — kept as
// the oracle partition must match part for part.
func refPartition(tb *dataset.Table, k int, metric distance.Metric, rng *rand.Rand) [][]int {
	n := tb.Len()
	k = min(k, n)
	s := (n + k - 1) / k
	perm := rng.Perm(n)
	centroid := make(map[int]bool, k)
	heaps := make([]maxHeap, k)
	for i := 0; i < k; i++ {
		centroid[perm[i]] = true
		heaps[i] = maxHeap{{pos: perm[i]}}
	}
	matrix := make([][]float64, n)
	for pos, tu := range tb.Tuples {
		matrix[pos] = make([]float64, k)
		for p := range matrix[pos] {
			for j, v := range tu.Values {
				matrix[pos][p] += metric.Distance(v, tb.Tuples[perm[p]].Values[j])
			}
		}
	}
	closest := func(pos int, full bool) int {
		best, bestD := -1, math.Inf(1)
		for p := 0; p < k; p++ {
			if (full || len(heaps[p]) < s) && matrix[pos][p] < bestD {
				best, bestD = p, matrix[pos][p]
			}
		}
		return best
	}
	for pos := range tb.Tuples {
		if centroid[pos] {
			continue
		}
		best := closest(pos, true)
		if len(heaps[best]) < s {
			heap.Push(&heaps[best], partEntry{pos: pos, dist: matrix[pos][best]})
			continue
		}
		evict := pos
		if top := heaps[best][0]; matrix[pos][best] < top.dist {
			evict = top.pos
			heap.Pop(&heaps[best])
			heap.Push(&heaps[best], partEntry{pos: pos, dist: matrix[pos][best]})
		}
		p := closest(evict, false)
		heap.Push(&heaps[p], partEntry{pos: evict, dist: matrix[evict][p]})
	}
	parts := make([][]int, k)
	for p, h := range heaps {
		for _, e := range h {
			parts[p] = append(parts[p], e.pos)
		}
	}
	return parts
}

// TestPartitionMatchesStringOracle: Algorithm 3 over value IDs splits every
// table exactly as the string matrix did — same parts, same heap order —
// under Levenshtein, cosine and a fractional custom metric, on random tables
// whose values recur across columns (the centroid table's memoized
// fallback), with empty, non-ASCII, invalid UTF-8 and U+FFFD values, k up to
// past |T|, and on HAI. The pool has no value as far off as jitter's "boom":
// past valuesBound the ID form stops adding, as Evaluator.Values does, where
// the string matrix did not.
func TestPartitionMatchesStringOracle(t *testing.T) {
	pool := []string{"", "a", "ab", "abc", "abd", "b", "ba", "x1", "x2",
		"é", "ée", "日本", "日本語", "a\xff", "a\uFFFD", "\uFFFD", "naïve", "naive"}
	metrics := []distance.Metric{distance.Levenshtein{}, distance.Cosine{}, jitter{}}
	tables := 300
	if testing.Short() {
		tables = 60
	}
	check := func(label string, tb *dataset.Table, k int, metric distance.Metric, seed int64) {
		t.Helper()
		got, err := partitionTable(tb, k, metric, seed)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := refPartition(tb, k, metric, rand.New(rand.NewSource(seed))); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: parts\n got %v\nwant %v", label, got, want)
		}
	}
	for s := 0; s < tables; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		metric := metrics[s%len(metrics)]
		width := 2 + rng.Intn(4)
		attrs := make([]string, width)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("A%d", j)
		}
		tb := dataset.NewTable(dataset.MustSchema(attrs...))
		for i, n := 0, 1+rng.Intn(50); i < n; i++ {
			row := make([]string, width)
			for j := range row {
				if rng.Intn(4) == 0 {
					row[j] = fmt.Sprintf("c%d-%d", j, rng.Intn(6)) // column-private values
				} else {
					row[j] = pool[rng.Intn(len(pool))]
				}
			}
			tb.MustAppend(row...)
		}
		for _, k := range []int{1, 2, 3, 5, 8} {
			check(fmt.Sprintf("table %d (%s, %d×%d) k=%d", s, metric.Name(), tb.Len(), width, k), tb, k, metric, int64(s))
		}
	}
	_, hai, _ := equivalenceFixture(t)
	for _, k := range []int{2, 4, 8} {
		check(fmt.Sprintf("hai k=%d", k), hai, k, distance.Levenshtein{}, 1)
	}
}

// mergeWeights applies Eq. 6 across a set of part indexes: every piece
// with the same rule and the same values gets the support-weighted mean of
// its per-part learned weights. It is finish's exchange in miniature — each
// index's values mapped to one run dictionary, summaries extracted,
// reduced, applied.
func mergeWeights(t *testing.T, indexes []*index.Index) {
	t.Helper()
	var rs []*rules.Rule
	for _, b := range indexes[0].Blocks {
		rs = append(rs, b.Rule)
	}
	dict := intern.NewDict()
	wds := make([]*workerDict, len(indexes))
	per := make([][]ruleWeights, len(indexes))
	for w, ix := range indexes {
		wd := &workerDict{}
		for l := 0; l < ix.Dict().Len(); l++ {
			c := dict.Intern(ix.Dict().Value(uint32(l)))
			if n := int(c) + 1; n > len(wd.local) {
				wd.local = append(wd.local, make([]uint32, n-len(wd.local))...)
			}
			wd.local[c] = uint32(l) + 1
			wd.coord = append(wd.coord, c)
		}
		wds[w], per[w] = wd, wd.summaries(ix)
	}
	merged := reducePieceWeights(per, rs, dict)
	for w, ix := range indexes {
		wds[w].applyWeights(ix, merged)
	}
}

func TestMergeWeightsEq6(t *testing.T) {
	// Two "workers" hold the same γ with different weights and supports:
	// the merged weight is the support-weighted mean (Eq. 6).
	r := rules.MustParseStrings("FD: A -> B")[0]
	mk := func(n int, w float64) *index.Index {
		tb := dataset.NewTable(dataset.MustSchema("A", "B"))
		for i := 0; i < n; i++ {
			tb.MustAppend("k", "v")
		}
		ix, err := index.Build(tb, []*rules.Rule{r})
		if err != nil {
			t.Fatal(err)
		}
		ix.Blocks[0].Groups[0].Pieces[0].Weight = w
		return ix
	}
	ix1 := mk(3, 0.9) // n=3, w=0.9
	ix2 := mk(1, 0.1) // n=1, w=0.1
	mergeWeights(t, []*index.Index{ix1, ix2})
	want := (3*0.9 + 1*0.1) / 4
	for _, ix := range []*index.Index{ix1, ix2} {
		got := ix.Blocks[0].Groups[0].Pieces[0].Weight
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("merged weight = %v, want %v", got, want)
		}
	}
}

// TestDedupProperties: for random tables, Dedup is idempotent, keeps the
// lowest-ID representative of every duplicate set, and its member groups
// partition the input tuple IDs.
func TestDedupProperties(t *testing.T) {
	f := func(seed int64, rowsRaw uint8) bool {
		rows := int(rowsRaw%50) + 1
		tb := randomTable(seed, rows)
		out, dups := core.Dedup(tb)

		// Member groups partition the input IDs: collect them from the
		// output representatives plus the reported duplicate sets.
		seen := make(map[int]int)
		for _, tp := range out.Tuples {
			seen[tp.ID]++
		}
		for _, group := range dups {
			if len(group) < 2 {
				return false
			}
			rep := group[0]
			for _, id := range group {
				if id < rep {
					return false // representative must be the lowest ID
				}
				if id != rep {
					seen[id]++
				}
			}
			if seen[rep] != 1 {
				return false // representative must be in the output exactly once
			}
		}
		if len(seen) != rows {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}

		// Lowest-ID representative: every output tuple's ID is the minimum
		// over the input tuples sharing its values.
		minID := make(map[string]int)
		for _, tp := range tb.Tuples {
			k := dataset.JoinKey(tp.Values)
			if cur, ok := minID[k]; !ok || tp.ID < cur {
				minID[k] = tp.ID
			}
		}
		for _, tp := range out.Tuples {
			if tp.ID != minID[dataset.JoinKey(tp.Values)] {
				return false
			}
		}

		// Idempotence: deduplicating the output changes nothing.
		again, dups2 := core.Dedup(out)
		if len(dups2) != 0 || again.Len() != out.Len() {
			return false
		}
		return len(again.Diff(out)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMergeWeightsProperty: on a two-worker fixture with random supports and
// weights, the merged weight is exactly the hand-computed Eq. 6
// support-weighted mean, on both workers' indexes.
func TestMergeWeightsProperty(t *testing.T) {
	r := rules.MustParseStrings("FD: A -> B")[0]
	mk := func(n int, w float64) *index.Index {
		tb := dataset.NewTable(dataset.MustSchema("A", "B"))
		for i := 0; i < n; i++ {
			tb.MustAppend("k", "v")
		}
		ix, err := index.Build(tb, []*rules.Rule{r})
		if err != nil {
			t.Fatal(err)
		}
		ix.Blocks[0].Groups[0].Pieces[0].Weight = w
		return ix
	}
	f := func(n1Raw, n2Raw uint8, w1Raw, w2Raw uint16) bool {
		n1, n2 := int(n1Raw%40)+1, int(n2Raw%40)+1
		w1, w2 := float64(w1Raw)/65535, float64(w2Raw)/65535
		ix1, ix2 := mk(n1, w1), mk(n2, w2)
		mergeWeights(t, []*index.Index{ix1, ix2})
		want := (float64(n1)*w1 + float64(n2)*w2) / float64(n1+n2)
		for _, ix := range []*index.Index{ix1, ix2} {
			got := ix.Blocks[0].Groups[0].Pieces[0].Weight
			if diff := got - want; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDedupKeepsLowestID(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A"))
	tb.MustAppend("x")
	tb.MustAppend("x")
	tb.MustAppend("y")
	out, dups := core.Dedup(tb)
	if out.Len() != 2 || out.Tuples[0].ID != 0 {
		t.Errorf("dedup result: %v", out)
	}
	if len(dups) != 1 || dups[0][0] != 0 {
		t.Errorf("dups = %v", dups)
	}
}

func TestDistributedMatchesStandaloneQuality(t *testing.T) {
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 150, Measures: 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := core.Clean(inj.Dirty, rs, core.Options{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Clean(inj.Dirty, rs, Options{Workers: 3, Seed: 1, Core: core.Options{Tau: 2}})
	if err != nil {
		t.Fatal(err)
	}
	qs := eval.RepairQuality(truth, inj.Dirty, solo.Repaired)
	qd := eval.RepairQuality(truth, inj.Dirty, dist.Repaired)
	t.Logf("stand-alone F1 = %.3f, distributed F1 = %.3f", qs.F1, qd.F1)
	if qd.F1 < qs.F1-0.15 {
		t.Errorf("distributed F1 %.3f too far below stand-alone %.3f", qd.F1, qs.F1)
	}
}

// TestTracedCleanFusesEachTupleOnce: stage II runs once per run, in the
// gather, so a traced Clean records one fusion outcome per tuple, in tuple
// order, however many workers took part.
func TestTracedCleanFusesEachTupleOnce(t *testing.T) {
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 60, Measures: 10, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		tr := &core.Trace{}
		if _, err := Clean(inj.Dirty, rs, Options{Workers: k, Seed: 1, Core: core.Options{Tau: 2, Trace: tr}}); err != nil {
			t.Fatal(err)
		}
		if len(tr.FSCR) != inj.Dirty.Len() {
			t.Fatalf("k=%d: %d fusion outcomes for %d tuples", k, len(tr.FSCR), inj.Dirty.Len())
		}
		for i, fo := range tr.FSCR {
			if want := inj.Dirty.Tuples[i].ID; fo.TupleID != want {
				t.Fatalf("k=%d: outcome %d is tuple %d, want %d", k, i, fo.TupleID, want)
			}
		}
	}
}

// TestCleanAliasesRepaired: the gather ends in the same stage II as the
// stand-alone cleaner, so every tuple of Clean is the tuple of Repaired with
// the same ID — the same object — with and without KeepDuplicates.
func TestCleanAliasesRepaired(t *testing.T) {
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := errgen.InjectDuplicates(truth, errgen.DuplicateConfig{Rate: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []bool{false, true} {
		res, err := Clean(dup.Dirty, rs, Options{Workers: 2, Seed: 1, Core: core.Options{KeepDuplicates: keep}})
		if err != nil {
			t.Fatal(err)
		}
		if kept := res.Clean.Len() == res.Repaired.Len(); kept != keep {
			t.Fatalf("keep=%v: %d clean of %d repaired tuples", keep, res.Clean.Len(), res.Repaired.Len())
		}
		byID := make(map[int]*dataset.Tuple, res.Repaired.Len())
		for _, tu := range res.Repaired.Tuples {
			byID[tu.ID] = tu
		}
		for i, tu := range res.Clean.Tuples {
			if byID[tu.ID] != tu {
				t.Fatalf("keep=%v: Clean.Tuples[%d] (tuple %d) is not Repaired's tuple", keep, i, tu.ID)
			}
		}
	}
}

func TestDistributedValidation(t *testing.T) {
	if _, err := Clean(nil, nil, Options{}); err == nil {
		t.Error("nil table should fail")
	}
}

func TestWorkerTauScaling(t *testing.T) {
	o := workerTauOpts(core.Options{Tau: 10}, 4)
	if o.Tau != 3 {
		t.Errorf("scaled tau = %d, want ⌈10/4⌉ = 3", o.Tau)
	}
	o = workerTauOpts(core.Options{Tau: 1}, 8)
	if o.Tau != 1 {
		t.Errorf("scaled tau = %d, want floor 1", o.Tau)
	}
	o = workerTauOpts(core.Options{Tau: 0, TauSet: true}, 4)
	if o.Tau != 0 {
		t.Errorf("disabled AGP must stay disabled, got %d", o.Tau)
	}
}

func TestClusterTimeModel(t *testing.T) {
	r := &Result{
		Workers:           4,
		PartitionDistTime: 400 * time.Millisecond,
		PartitionHeapTime: 10 * time.Millisecond,
		WorkerTimes:       []time.Duration{50 * time.Millisecond, 80 * time.Millisecond},
		GatherTime:        40 * time.Millisecond,
	}
	want := 100*time.Millisecond + 10*time.Millisecond + 80*time.Millisecond + 10*time.Millisecond
	if got := r.ClusterTime(); got != want {
		t.Errorf("ClusterTime = %v, want %v", got, want)
	}
}

// TestTransportByName: the shim accepts the four names it always took and
// rejects any other.
func TestTransportByName(t *testing.T) {
	for _, name := range []string{"", "chan", "gob", "http"} {
		if _, err := TransportByName(name); err != nil {
			t.Errorf("TransportByName(%q) = %v", name, err)
		}
	}
	if _, err := TransportByName("carrier-pigeon"); err == nil {
		t.Error("unknown transport name accepted")
	}
}
