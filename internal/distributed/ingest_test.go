package distributed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/errgen"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// refAssign is the streaming partitioner as it stood before the centroid
// distance table — one Evaluator.ValuesBounded per (tuple, centroid), its own
// interning loop — kept as the oracle the online partitioner must match: the
// same centroids, the same assignment of every tuple, in the same order.
type refAssign struct {
	k         int
	dict      *intern.Dict
	ev        *distance.Evaluator
	rng       *rand.Rand
	tuples    []*dataset.Tuple
	gatherIDs [][]uint32
	centroids [][]uint32
	loads     []int
	shipped   int
	parts     []refBatch // per partition, its tuples in assignment order
}

// refBatch is a run of the oracle's tuples: their IDs and values.
type refBatch struct {
	IDs  []int
	Rows [][]string
}

func newRefAssign(k int, metric distance.Metric, seed int64) *refAssign {
	dict := intern.NewDict()
	return &refAssign{
		k: k, dict: dict, ev: distance.NewEvaluator(metric, dict),
		rng: rand.New(rand.NewSource(seed)), loads: make([]int, k), parts: make([]refBatch, k),
	}
}

func (r *refAssign) submit(rows [][]string) {
	for _, row := range rows {
		vals := make([]string, len(row))
		ids := make([]uint32, len(row))
		for i, v := range row {
			ids[i] = r.dict.Intern(v)
			vals[i] = r.dict.Value(ids[i])
		}
		r.tuples = append(r.tuples, &dataset.Tuple{ID: len(r.tuples), Values: vals})
		r.gatherIDs = append(r.gatherIDs, ids)
	}
	if len(rows) == 0 || (r.centroids == nil && len(r.tuples) < r.k) {
		return
	}
	r.assign()
}

func (r *refAssign) assign() {
	if r.shipped >= len(r.tuples) {
		return
	}
	if r.centroids == nil {
		n := len(r.tuples)
		kk := r.k
		if kk > n {
			kk = n
		}
		perm := r.rng.Perm(n)
		r.centroids = make([][]uint32, r.k)
		for i := 0; i < kk; i++ {
			r.centroids[i] = r.gatherIDs[perm[i]]
		}
		for i := kk; i < r.k; i++ {
			r.centroids[i] = r.centroids[0]
		}
	}
	dists := make([]float64, r.k)
	for ; r.shipped < len(r.tuples); r.shipped++ {
		t := r.tuples[r.shipped]
		row := r.gatherIDs[r.shipped]
		for w := 0; w < r.k; w++ {
			dists[w] = r.ev.ValuesBounded(row, r.centroids[w], valuesBound)
		}
		capacity := (r.shipped + r.k) / r.k
		best := -1
		for w := 0; w < r.k; w++ {
			if r.loads[w] >= capacity {
				continue
			}
			if best == -1 || dists[w] < dists[best] {
				best = w
			}
		}
		r.loads[best]++
		r.parts[best].IDs = append(r.parts[best].IDs, t.ID)
		r.parts[best].Rows = append(r.parts[best].Rows, t.Values)
	}
}

// streamCoordinator is the coordinator CleanStream runs on: opts.Workers
// parts, no rows yet.
func streamCoordinator(t testing.TB, schema *dataset.Schema, rs []*rules.Rule, opts Options) *coordinator {
	t.Helper()
	c, err := newCoordinator(schema, rs, opts, opts.Workers)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// submit appends rows to c's encoder and flushes them, as CleanStream does
// at the end of each batch.
func submit(t testing.TB, c *coordinator, rows [][]string) {
	t.Helper()
	for _, row := range rows {
		if _, err := c.senc.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	c.flush()
}

// checkAgainstRef compares each part's tuples, decoded through the run's
// dictionary, and every tuple's centroid distances, with the oracle's.
func checkAgainstRef(t *testing.T, label string, c *coordinator, ref *refAssign, metric distance.Metric) {
	t.Helper()
	if !reflect.DeepEqual(c.loads, ref.loads) {
		t.Fatalf("%s: loads %v, oracle %v", label, c.loads, ref.loads)
	}
	var centroids [][]uint32
	if c.cent != nil {
		centroids = c.cent.centroids
	}
	if !reflect.DeepEqual(centroids, ref.centroids) {
		t.Fatalf("%s: centroids %v, oracle %v", label, centroids, ref.centroids)
	}
	for p, in := range c.parts {
		want := ref.parts[p]
		ids := make([]int, len(in.tuples))
		rows := make([][]string, len(in.rows))
		for i, row := range in.rows {
			ids[i] = in.tuples[i].ID
			for _, id := range row {
				rows[i] = append(rows[i], c.dict.Value(id))
			}
			if !reflect.DeepEqual(rows[i], in.tuples[i].Values) {
				t.Fatalf("%s: partition %d: tuple %d is %q, its row %q", label, p, ids[i], in.tuples[i].Values, rows[i])
			}
		}
		if len(ids) != len(want.IDs) || (len(ids) > 0 && (!reflect.DeepEqual(ids, want.IDs) || !reflect.DeepEqual(rows, want.Rows))) {
			t.Fatalf("%s: partition %d:\n got %v %q\nwant %v %q", label, p, ids, rows, want.IDs, want.Rows)
		}
	}
	if centroids == nil {
		return
	}
	fresh := distance.NewEvaluator(metric, c.dict)
	for i, row := range c.senc.Encoded().Rows {
		got := c.cent.distances([][]uint32{row})
		for w, cr := range centroids {
			if want := fresh.ValuesBounded(row, cr, valuesBound); math.Float64bits(got[w]) != math.Float64bits(want) {
				t.Fatalf("%s: tuple %d centroid %d: distance %v (%#x), ValuesBounded %v (%#x)",
					label, i, w, got[w], math.Float64bits(got[w]), want, math.Float64bits(want))
			}
		}
	}
}

// jitter is a custom metric whose distances are fractions (so the order of
// a sum shows in its last bits) and, for one value, far past the bound where
// a row's distance stops summing.
type jitter struct{}

func (jitter) Name() string { return "jitter" }
func (jitter) Distance(a, b string) float64 {
	if a == b {
		return 0
	}
	if a == "boom" || b == "boom" {
		return 1e12
	}
	d := 0.1 + math.Abs(float64(len(a)-len(b)))/3
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			d += 1 / float64(7+i)
		}
	}
	return d
}

// TestCentroidColumnMatchesValues: the online partitioner's distance table
// gives every tuple the k distances Evaluator.ValuesBounded gives it, to the
// bit, and assigns what the old loop assigned — on random streams whose values recur
// across columns (the table's fallback), with empty, non-ASCII, invalid
// UTF-8 and U+FFFD values, random flush boundaries, and fewer tuples than
// parts.
func TestCentroidColumnMatchesValues(t *testing.T) {
	pool := []string{"", "a", "ab", "abc", "abd", "b", "ba", "x1", "x2", "boom",
		"é", "ée", "日本", "日本語", "a\xff", "a\uFFFD", "\uFFFD", "naïve", "naive"}
	metrics := []distance.Metric{distance.Levenshtein{}, distance.Cosine{}, jitter{}}
	streams := 1002
	if testing.Short() {
		streams = 102
	}
	for s := 0; s < streams; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		metric := metrics[s%len(metrics)]
		width := 2 + rng.Intn(4)
		attrs := make([]string, width)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("A%d", j)
		}
		schema := dataset.MustSchema(attrs...)
		rs := rules.MustParseStrings("FD: A0 -> A1")
		n := rng.Intn(40)
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = make([]string, width)
			for j := range rows[i] {
				if rng.Intn(4) == 0 {
					rows[i][j] = fmt.Sprintf("c%d-%d", j, rng.Intn(6)) // column-private values
				} else {
					rows[i][j] = pool[rng.Intn(len(pool))]
				}
			}
		}
		for _, k := range []int{1, 2, 3, 5} {
			label := fmt.Sprintf("stream %d (%s, %d×%d) k=%d", s, metric.Name(), n, width, k)
			c := streamCoordinator(t, schema, rs, Options{Workers: k, Seed: int64(s), Core: core.Options{Metric: metric}})
			ref := newRefAssign(k, metric, int64(s))
			cut := rand.New(rand.NewSource(int64(s)*31 + int64(k)))
			for lo := 0; lo < n; {
				hi := min(n, lo+1+cut.Intn(12))
				submit(t, c, rows[lo:hi])
				ref.submit(rows[lo:hi])
				lo = hi
			}
			// What CleanStream does at EOF: tuples still buffered because
			// fewer than k arrived are assigned now.
			c.assign()
			ref.assign()
			checkAgainstRef(t, label, c, ref, metric)
		}
	}
}

// tpchRows is the repository benchmark's dist-tpch input shape.
func tpchRows(tb testing.TB) (*dataset.Table, []*rules.Rule) {
	truth, rs, err := datagen.TPCH(datagen.TPCHConfig{Customers: 600, Rows: 12000, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.15, ReplacementRatio: 0.5, Seed: 42*1_000_003 + 17})
	if err != nil {
		tb.Fatal(err)
	}
	return inj.Dirty, rs
}

// submitBatches feeds dirty to c in size-row batches, the oracle too when
// ref is not nil.
func submitBatches(tb testing.TB, c *coordinator, ref *refAssign, dirty *dataset.Table, size int) {
	for lo := 0; lo < dirty.Len(); lo += size {
		var rows [][]string
		for _, tp := range dirty.Tuples[lo:min(lo+size, dirty.Len())] {
			rows = append(rows, tp.Values)
		}
		submit(tb, c, rows)
		if ref != nil {
			ref.submit(rows)
		}
	}
}

// TestPartitionerMemoBounded: streaming the 12k-row TPC-H table leaves the
// partitioner holding k distances per distinct value — its centroid table,
// grown at most to twice the dictionary — and nothing per pair it measured
// (the evaluator keeps no pair), while shipping exactly what the old loop
// shipped.
func TestPartitionerMemoBounded(t *testing.T) {
	dirty, rs := tpchRows(t)
	const k = 2
	c := streamCoordinator(t, dirty.Schema, rs, Options{Workers: k, Seed: 1})
	ref := newRefAssign(k, distance.Levenshtein{}, 1)
	submitBatches(t, c, ref, dirty, 1024)
	checkAgainstRef(t, "tpch", c, ref, distance.Levenshtein{})

	// The old loop memoized one entry per distinct (value, centroid cell)
	// pair it measured; count those directly.
	old := make(map[[2]uint32]bool)
	for _, row := range ref.gatherIDs {
		for _, c := range ref.centroids {
			for j, id := range row {
				if id != c[j] {
					old[[2]uint32{min(id, c[j]), max(id, c[j])}] = true
				}
			}
		}
	}
	got := len(c.cent.dist)
	t.Logf("distinct values %d; centroid table: %d entries, old loop %d pairs", c.dict.Len(), got, len(old))
	if got > 2*k*c.dict.Len() {
		t.Errorf("centroid table holds %d distances, want ≤ 2·k·values = %d", got, 2*k*c.dict.Len())
	}
	if len(old) < c.dict.Len() {
		t.Errorf("the old loop measures %d pairs for %d distinct values: the comparison is vacuous", len(old), c.dict.Len())
	}
}

// BenchmarkSubmitTPCH is CleanStream's ingest in isolation: the 12k-row
// TPC-H table encoded and assigned by the online partitioner in 1,024-row
// batches, 2 parts.
func BenchmarkSubmitTPCH(b *testing.B) {
	dirty, rs := tpchRows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitBatches(b, streamCoordinator(b, dirty.Schema, rs, Options{Workers: 2, Seed: 1}), nil, dirty, 1024)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dirty.Len()), "ns/row")
}

// BenchmarkPartitionTPCH is Algorithm 3 alone on the same 12k-row TPC-H
// table, 2 parts, as Clean runs it: over the encoded rows, with a fresh
// evaluator per run. ns/row is comparable with BenchmarkSubmitTPCH's.
func BenchmarkPartitionTPCH(b *testing.B) {
	dirty, _ := tpchRows(b)
	enc := dataset.Encode(dirty, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := distance.NewEvaluator(distance.Levenshtein{}, enc.Dict)
		if _, _, _, err := partition(enc.Rows, 2, ev, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dirty.Len()), "ns/row")
}
