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
// distance table — one Evaluator.ValuesBounded per (tuple, centroid), its own
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
	parts     [][]refBatch // per partition, one entry per shipment
}

// refBatch is one shipment of the oracle: tuple IDs and their values.
type refBatch struct {
	IDs  []int
	Rows [][]string
}

func newRefAssign(k int, metric distance.Metric, seed int64) *refAssign {
	dict := intern.NewDict()
	return &refAssign{
		k: k, dict: dict, ev: distance.NewEvaluator(metric, dict),
		rng: rand.New(rand.NewSource(seed)), loads: make([]int, k), parts: make([][]refBatch, k),
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
	batches := make([]refBatch, r.k)
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

// decodeShipment reads a TupleBatch back into values through the
// coordinator's dictionary, and checks its delta: the strings of the value
// IDs the partition meets for the first time, in the order it meets them.
// sent holds the IDs the partition was shipped before.
func decodeShipment(t *testing.T, label string, dict *intern.Dict, width int, b TupleBatch, sent map[uint32]bool) [][]string {
	t.Helper()
	if len(b.Rows) != len(b.IDs)*width {
		t.Fatalf("%s: %d value IDs for %d tuples of %d values", label, len(b.Rows), len(b.IDs), width)
	}
	rows := make([][]string, len(b.IDs))
	var delta []string
	for i := range rows {
		for _, id := range b.Rows[i*width : (i+1)*width] {
			rows[i] = append(rows[i], dict.Value(id))
			if !sent[id] {
				sent[id] = true
				delta = append(delta, dict.Value(id))
			}
		}
	}
	var got []string
	start := 0
	for _, end := range b.DeltaEnds {
		got = append(got, b.Delta[start:end])
		start = end
	}
	if !reflect.DeepEqual(got, delta) || start != len(b.Delta) {
		t.Fatalf("%s: delta %q (%d bytes), want %q", label, got, len(b.Delta), delta)
	}
	return rows
}

// checkAgainstRef compares what the executor shipped, decoded through its
// dictionary, and every gathered tuple's centroid distances, with the
// oracle's.
func checkAgainstRef(t *testing.T, label string, ex *Executor, log *shipLog, ref *refAssign, metric distance.Metric) {
	t.Helper()
	if !reflect.DeepEqual(ex.loads, ref.loads) {
		t.Fatalf("%s: loads %v, oracle %v", label, ex.loads, ref.loads)
	}
	var centroids [][]uint32
	if ex.cent != nil {
		centroids = ex.cent.centroids
	}
	if !reflect.DeepEqual(centroids, ref.centroids) {
		t.Fatalf("%s: centroids %v, oracle %v", label, centroids, ref.centroids)
	}
	for p, sent := range log.sent {
		if len(sent) != len(ref.parts[p]) {
			t.Fatalf("%s: partition %d got %d shipments, oracle %d", label, p, len(sent), len(ref.parts[p]))
		}
		seen := make(map[uint32]bool)
		for i, b := range sent {
			want := ref.parts[p][i]
			rows := decodeShipment(t, label, ex.dict, ex.schema.Len(), b, seen)
			if !reflect.DeepEqual(b.IDs, want.IDs) || !reflect.DeepEqual(rows, want.Rows) {
				t.Fatalf("%s: partition %d shipment %d:\n got %v %q\nwant %v %q", label, p, i, b.IDs, rows, want.IDs, want.Rows)
			}
		}
	}
	if centroids == nil {
		return
	}
	fresh := distance.NewEvaluator(metric, ex.dict)
	for i, row := range ex.senc.Encoded().Rows {
		got := ex.cent.distances([][]uint32{row})
		for w, c := range centroids {
			if want := fresh.ValuesBounded(row, c, valuesBound); math.Float64bits(got[w]) != math.Float64bits(want) {
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

// TestCentroidColumnMatchesValues: the executor's distance table gives every
// tuple the k distances Evaluator.ValuesBounded gives it, to the bit, and Submit
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
			if ex.cent.home[id] != int32(j)+1 && !seen[[2]uint32{uint32(j), id}] {
				seen[[2]uint32{uint32(j), id}] = true
				shared++
			}
		}
	}
	// The old loop memoized one entry per distinct (value, centroid cell)
	// pair it measured; count those directly, since the evaluator's capped
	// memo forgets them.
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
	got := reflect.ValueOf(ex.ev).Elem().FieldByName("memo").Len()
	t.Logf("distinct values %d, shared-column (column, value) pairs %d; memo: %d entries, old loop %d pairs", ex.dict.Len(), shared, got, len(old))
	if got > k*shared {
		t.Errorf("partitioner memo holds %d pairs, want ≤ k·shared = %d", got, k*shared)
	}
	if len(old) < ex.dict.Len() {
		t.Errorf("the old loop measures %d pairs for %d distinct values: the comparison is vacuous", len(old), ex.dict.Len())
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

// stringIngest is a worker's ingest as it was before the ID wire: the
// partition's rows, by value, through StreamEncoder.AppendID into a fresh
// dictionary.
func stringIngest(t *testing.T, schema *dataset.Schema, batches []refBatch) *dataset.StreamEncoder {
	t.Helper()
	senc := dataset.NewStreamEncoder(schema, nil)
	for _, b := range batches {
		for i, row := range b.Rows {
			if _, err := senc.AppendID(b.IDs[i], row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return senc
}

// checkWorkerIngest feeds partition p's recorded shipments, each through the
// gob framing, to the worker's ingest and compares the dictionary, table
// and encoded rows it builds with want's, ID for ID.
func checkWorkerIngest(t *testing.T, label string, schema *dataset.Schema, sent []TupleBatch, want *dataset.StreamEncoder) {
	t.Helper()
	wd := newWorkerDict()
	got := dataset.NewStreamEncoder(schema, wd.dict)
	for _, b := range sent {
		frame, err := EncodeMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := wd.ingest(got, m.(TupleBatch)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if got.Dict().Len() != want.Dict().Len() {
		t.Fatalf("%s: %d local values, string ingest %d", label, got.Dict().Len(), want.Dict().Len())
	}
	for i := 0; i < want.Dict().Len(); i++ {
		if g, w := got.Dict().Value(uint32(i)), want.Dict().Value(uint32(i)); g != w {
			t.Fatalf("%s: local ID %d is %q, string ingest %q", label, i, g, w)
		}
	}
	if !reflect.DeepEqual(got.Encoded().Rows, want.Encoded().Rows) {
		t.Fatalf("%s: encoded rows differ from string ingest", label)
	}
	if d := got.Table().Diff(want.Table()); got.Table().Len() != want.Table().Len() || len(d) != 0 {
		t.Fatalf("%s: table differs from string ingest", label)
	}
	for i, tu := range got.Table().Tuples {
		if tu.ID != want.Table().Tuples[i].ID {
			t.Fatalf("%s: tuple %d has ID %d, string ingest %d", label, i, tu.ID, want.Table().Tuples[i].ID)
		}
	}
}

// TestWorkerLocalIDsMatchStringIngest: a worker ingesting its partition off
// the ID wire mints exactly the local IDs — and so builds exactly the
// dictionary, table and encoded rows — that encoding the same partition
// rows by value does, for both entry points (Clean's Algorithm 3 and
// Submit's online partitioner), k ∈ {1, 2, 4}, on HAI and TPC-H.
func TestWorkerLocalIDsMatchStringIngest(t *testing.T) {
	_, hai, haiRules := equivalenceFixture(t)
	tpch, tpchRules := tpchRows(t)
	for _, ds := range []struct {
		name  string
		dirty *dataset.Table
		rs    []*rules.Rule
	}{{"hai", hai, haiRules}, {"tpch", tpch, tpchRules}} {
		if testing.Short() && ds.name == "tpch" {
			continue
		}
		for _, k := range []int{1, 2, 4} {
			// Submit: the online partitioner's shipments, against the
			// oracle's partition rows.
			label := fmt.Sprintf("%s submit k=%d", ds.name, k)
			ex, log := loggedExecutor(t, ds.dirty.Schema, ds.rs, Options{Workers: k, Seed: 1})
			ref := newRefAssign(k, distance.Levenshtein{}, 1)
			submitBatches(t, ex, ds.dirty, 1024)
			for lo := 0; lo < ds.dirty.Len(); lo += 1024 {
				var rows [][]string
				for _, tp := range ds.dirty.Tuples[lo:min(lo+1024, ds.dirty.Len())] {
					rows = append(rows, tp.Values)
				}
				ref.submit(rows)
			}
			checkAgainstRef(t, label, ex, log, ref, distance.Levenshtein{})
			ex.Close()
			for p := range log.sent {
				checkWorkerIngest(t, fmt.Sprintf("%s partition %d", label, p), ds.dirty.Schema, log.sent[p], stringIngest(t, ds.dirty.Schema, ref.parts[p]))
			}

			// Clean: Algorithm 3's parts, in heap order.
			label = fmt.Sprintf("%s clean k=%d", ds.name, k)
			log = &shipLog{}
			opts := Options{Workers: k, Seed: 1, Transport: func(n int) Transport {
				log.Transport, log.sent = NewChanTransport(n), make([][]TupleBatch, n)
				return log
			}}
			if _, err := Clean(ds.dirty, ds.rs, opts); err != nil {
				t.Fatal(err)
			}
			parts, err := partitionTable(ds.dirty, k, distance.Levenshtein{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for p, part := range parts {
				var b refBatch
				for _, pos := range part {
					b.IDs = append(b.IDs, ds.dirty.Tuples[pos].ID)
					b.Rows = append(b.Rows, ds.dirty.Tuples[pos].Values)
				}
				checkWorkerIngest(t, fmt.Sprintf("%s partition %d", label, p), ds.dirty.Schema, log.sent[p], stringIngest(t, ds.dirty.Schema, []refBatch{b}))
			}
		}
	}
}

// BenchmarkWireRoundTrip is the wire codec alone: one partition's share of
// the 12k-row TPC-H table (2 workers, 1,024-row shipments) — its
// TupleBatches and its FusionResult — each through EncodeMessage and
// DecodeMessage. wire-B/op is the frames' total size.
func BenchmarkWireRoundTrip(b *testing.B) {
	dirty, rs := tpchRows(b)
	log := &shipLog{}
	var msgs []Message
	opts := Options{Workers: 2, Seed: 1, Transport: func(k int) Transport {
		log.Transport, log.sent = NewChanTransport(k), make([][]TupleBatch, k)
		return &tamperReplies{Transport: log, tamper: func(m Message) Message {
			if fr, ok := m.(FusionResult); ok && fr.Worker == 0 {
				msgs = append(msgs, fr)
			}
			return m
		}}
	}}
	ex, err := NewExecutor(dirty.Schema, rs, opts)
	if err != nil {
		b.Fatal(err)
	}
	submitBatches(b, ex, dirty, 1024)
	if _, err := ex.Run(); err != nil {
		b.Fatal(err)
	}
	for _, tb := range log.sent[0] {
		msgs = append(msgs, tb)
	}
	b.ReportAllocs()
	b.ResetTimer()
	size := 0
	for i := 0; i < b.N; i++ {
		size = 0
		for _, m := range msgs {
			frame, err := EncodeMessage(m)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeMessage(frame); err != nil {
				b.Fatal(err)
			}
			size += len(frame)
		}
	}
	b.ReportMetric(float64(size), "wire-B/op")
}
