package distributed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/errgen"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// refAssign is the streaming partitioner as it stood before the executor's
// distance table — one Evaluator.Values per (tuple, centroid), its own
// interning loop — kept as the oracle Submit must match: the same centroids,
// the same assignment of every tuple, the same batches in the same order.
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
	parts     [][]TupleBatch // per partition, one entry per shipment
}

func newRefAssign(k int, metric distance.Metric, seed int64) *refAssign {
	dict := intern.NewDict()
	return &refAssign{
		k: k, dict: dict, ev: distance.NewEvaluator(metric, dict),
		rng: rand.New(rand.NewSource(seed)), loads: make([]int, k), parts: make([][]TupleBatch, k),
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
	r.assignAndShip()
}

func (r *refAssign) assignAndShip() {
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
	batches := make([]TupleBatch, r.k)
	dists := make([]float64, r.k)
	for ; r.shipped < len(r.tuples); r.shipped++ {
		t := r.tuples[r.shipped]
		row := r.gatherIDs[r.shipped]
		for w := 0; w < r.k; w++ {
			dists[w] = r.ev.Values(row, r.centroids[w])
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
		batches[best].IDs = append(batches[best].IDs, t.ID)
		batches[best].Rows = append(batches[best].Rows, t.Values)
	}
	for p := range batches {
		if len(batches[p].IDs) > 0 {
			r.parts[p] = append(r.parts[p], batches[p])
		}
	}
}

// shipLog records every TupleBatch the coordinator sends, per worker slot.
// The oracle counts shipments, not BatchSize chunks: every shipment in these
// tests is under the 1,024-row default, so each one is a single chunk.
type shipLog struct {
	Transport
	sent [][]TupleBatch
}

func (t *shipLog) ToWorkerDeadline(w int, m Message, d time.Duration) error {
	if b, ok := m.(TupleBatch); ok {
		t.sent[w] = append(t.sent[w], b)
	}
	return t.Transport.ToWorkerDeadline(w, m, d)
}

// loggedExecutor is NewExecutor on a chan transport wrapped in a shipLog.
func loggedExecutor(t *testing.T, schema *dataset.Schema, rs []*rules.Rule, opts Options) (*Executor, *shipLog) {
	t.Helper()
	log := &shipLog{}
	opts.Transport = func(k int) Transport {
		log.Transport, log.sent = NewChanTransport(k), make([][]TupleBatch, k)
		return log
	}
	ex, err := NewExecutor(schema, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ex, log
}

// checkAgainstRef compares what the executor shipped, and every gathered
// tuple's centroid distances, with the oracle's.
func checkAgainstRef(t *testing.T, label string, ex *Executor, log *shipLog, ref *refAssign, metric distance.Metric) {
	t.Helper()
	if !reflect.DeepEqual(ex.loads, ref.loads) {
		t.Fatalf("%s: loads %v, oracle %v", label, ex.loads, ref.loads)
	}
	if !reflect.DeepEqual(ex.centroids, ref.centroids) {
		t.Fatalf("%s: centroids %v, oracle %v", label, ex.centroids, ref.centroids)
	}
	for p, sent := range log.sent {
		if len(sent) != len(ref.parts[p]) {
			t.Fatalf("%s: partition %d got %d shipments, oracle %d", label, p, len(sent), len(ref.parts[p]))
		}
		for i, b := range sent {
			want := ref.parts[p][i]
			if !reflect.DeepEqual(b.IDs, want.IDs) || !reflect.DeepEqual(b.Rows, want.Rows) {
				t.Fatalf("%s: partition %d shipment %d:\n got %v %q\nwant %v %q", label, p, i, b.IDs, b.Rows, want.IDs, want.Rows)
			}
		}
	}
	if ex.centroids == nil {
		return
	}
	fresh := distance.NewEvaluator(metric, ex.dict)
	for i, row := range ex.senc.Encoded().Rows {
		got := ex.centroidDistances([][]uint32{row})
		for w, c := range ex.centroids {
			if want := fresh.Values(row, c); math.Float64bits(got[w]) != math.Float64bits(want) {
				t.Fatalf("%s: tuple %d centroid %d: distance %v (%#x), Values %v (%#x)",
					label, i, w, got[w], math.Float64bits(got[w]), want, math.Float64bits(want))
			}
		}
	}
}

// jitter is a custom metric whose distances are fractions (so the order of
// a sum shows in its last bits) and, for one value, far past the bound where
// Evaluator.Values stops summing.
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
func (m jitter) Normalized(a, b string) float64 { return math.Min(1, m.Distance(a, b)) }

// TestCentroidColumnMatchesValues: the executor's distance table gives every
// tuple the k distances Evaluator.Values gives it, to the bit, and Submit
// ships what the old loop shipped — on random streams whose values recur
// across columns (the table's fallback), with empty, non-ASCII, invalid
// UTF-8 and U+FFFD values, random batch boundaries, and fewer tuples than
// workers.
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
			ex, log := loggedExecutor(t, schema, rs, Options{Workers: k, Seed: int64(s), Core: core.Options{Metric: metric}})
			ref := newRefAssign(k, metric, int64(s))
			cut := rand.New(rand.NewSource(int64(s)*31 + int64(k)))
			for lo := 0; lo < n; {
				hi := min(n, lo+1+cut.Intn(12))
				batch := dataset.NewTable(schema)
				for _, row := range rows[lo:hi] {
					batch.MustAppend(row...)
				}
				if err := ex.Submit(batch); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref.submit(rows[lo:hi])
				lo = hi
			}
			// What Run does first: tuples still buffered because fewer than
			// k arrived are assigned now.
			if err := ex.assignAndShip(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ref.assignAndShip()
			checkAgainstRef(t, label, ex, log, ref, metric)
			ex.Close()
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

// submitBatches feeds dirty through Submit in size-row batches.
func submitBatches(tb testing.TB, ex *Executor, dirty *dataset.Table, size int) {
	for lo := 0; lo < dirty.Len(); lo += size {
		batch := &dataset.Table{Schema: dirty.Schema, Tuples: dirty.Tuples[lo:min(lo+size, dirty.Len())]}
		if err := ex.Submit(batch); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPartitionerMemoBounded: streaming the 12k-row TPC-H table leaves the
// partitioner's evaluator memo holding only the pairs of values met outside
// their home column — not one entry per (distinct value, centroid cell) —
// while shipping exactly what the old loop shipped.
func TestPartitionerMemoBounded(t *testing.T) {
	dirty, rs := tpchRows(t)
	const k = 2
	ex, log := loggedExecutor(t, dirty.Schema, rs, Options{Workers: k, Seed: 1})
	defer ex.Close()
	ref := newRefAssign(k, distance.Levenshtein{}, 1)
	submitBatches(t, ex, dirty, 1024)
	for lo := 0; lo < dirty.Len(); lo += 1024 {
		var rows [][]string
		for _, tp := range dirty.Tuples[lo:min(lo+1024, dirty.Len())] {
			rows = append(rows, tp.Values)
		}
		ref.submit(rows)
	}
	checkAgainstRef(t, "tpch", ex, log, ref, distance.Levenshtein{})

	shared := 0 // value IDs seen in a column other than their home
	seen := make(map[[2]uint32]bool)
	for _, row := range ex.senc.Encoded().Rows {
		for j, id := range row {
			if ex.centHome[id] != int32(j)+1 && !seen[[2]uint32{uint32(j), id}] {
				seen[[2]uint32{uint32(j), id}] = true
				shared++
			}
		}
	}
	memoLen := func(ev *distance.Evaluator) int {
		return reflect.ValueOf(ev).Elem().FieldByName("memo").Len()
	}
	got, old := memoLen(ex.ev), memoLen(ref.ev)
	t.Logf("distinct values %d, shared-column (column, value) pairs %d; memo: %d entries, old loop %d", ex.dict.Len(), shared, got, old)
	if got > k*shared {
		t.Errorf("partitioner memo holds %d pairs, want ≤ k·shared = %d", got, k*shared)
	}
	if old < ex.dict.Len() {
		t.Errorf("oracle memo holds %d pairs for %d distinct values: the comparison is vacuous", old, ex.dict.Len())
	}
}

// BenchmarkSubmitTPCH is the coordinator's ingest in isolation: the 12k-row
// TPC-H table through Submit in 1,024-row batches on the chan transport,
// the workers decoding what is shipped.
func BenchmarkSubmitTPCH(b *testing.B) {
	dirty, rs := tpchRows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := NewExecutor(dirty.Schema, rs, Options{Workers: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		submitBatches(b, ex, dirty, 1024)
		b.StopTimer()
		ex.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dirty.Len()), "ns/row")
}
