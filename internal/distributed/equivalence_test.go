package distributed

import (
	"bytes"
	"context"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/eval"
	"mlnclean/internal/rules"
)

// equivalenceFixture generates a seeded HAI table with injected errors.
func equivalenceFixture(t *testing.T) (*dataset.Table, *dataset.Table, []*rules.Rule) {
	t.Helper()
	// Groups must stay deep enough (Measures per provider) that an 8-way
	// partition leaves each part real group support; shallow groups fragment
	// to singletons and degrade every partitioned configuration alike.
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 80, Measures: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	return truth, inj.Dirty, rs
}

// TestConcurrentEquivalence: for a seeded generated table, the concurrent
// executor's cleaned output is deterministic across runs, and its
// precision/recall/F1 stays within a fixed tolerance of the serial
// stand-alone pipeline, for k ∈ {1, 2, 4, 8} workers.
func TestConcurrentEquivalence(t *testing.T) {
	truth, dirty, rs := equivalenceFixture(t)
	solo, err := core.Clean(dirty, rs, core.Options{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := eval.RepairQuality(truth, dirty, solo.Repaired)
	const tol = 0.15

	for _, k := range []int{1, 2, 4, 8} {
		opts := Options{Workers: k, Seed: 1, Core: core.Options{Tau: 2}}
		first, err := Clean(dirty, rs, opts)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		second, err := Clean(dirty, rs, opts)
		if err != nil {
			t.Fatalf("k=%d rerun: %v", k, err)
		}
		if d := first.Repaired.Diff(second.Repaired); len(d) != 0 {
			t.Errorf("k=%d: repaired output not deterministic: %d differing cells, first %v", k, len(d), d[0])
		}
		if d := first.Clean.Diff(second.Clean); first.Clean.Len() != second.Clean.Len() || len(d) != 0 {
			t.Errorf("k=%d: deduplicated output not deterministic", k)
		}
		q := eval.RepairQuality(truth, dirty, first.Repaired)
		t.Logf("k=%d: P=%.3f R=%.3f F1=%.3f (stand-alone P=%.3f R=%.3f F1=%.3f)",
			k, q.Precision, q.Recall, q.F1, qs.Precision, qs.Recall, qs.F1)
		if q.F1 < qs.F1-tol {
			t.Errorf("k=%d: F1 %.3f more than %.2f below stand-alone %.3f", k, q.F1, tol, qs.F1)
		}
		if q.Precision < qs.Precision-tol {
			t.Errorf("k=%d: precision %.3f more than %.2f below stand-alone %.3f", k, q.Precision, tol, qs.Precision)
		}
		if q.Recall < qs.Recall-tol {
			t.Errorf("k=%d: recall %.3f more than %.2f below stand-alone %.3f", k, q.Recall, tol, qs.Recall)
		}
	}
}

// TestStreamOneWorkerMatchesSolo: with one worker the partition is the whole
// table and the Eq. 6 merge is the identity, so CleanStream must return the
// stand-alone pipeline's table — and therefore its Stats: every counter,
// and in particular the three fusion counters, which describe the gather
// pass whose table is returned and not the workers' discarded local passes.
func TestStreamOneWorkerMatchesSolo(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	solo, err := core.Clean(dirty, rs, core.Options{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := dirty.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	stream, err := dataset.StreamCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := CleanStream(context.Background(), stream, rs, Options{Workers: 1, Seed: 1, Core: core.Options{Tau: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d := solo.Repaired.Diff(dist.Repaired); len(d) != 0 {
		t.Fatalf("k=1 repaired table differs from stand-alone: %d cells, first %v", len(d), d[0])
	}
	if solo.Stats.FSCRCellChanges == 0 {
		t.Fatal("fixture fuses nothing; the comparison below would be vacuous")
	}
	if dist.Stats != solo.Stats {
		t.Errorf("k=1 Stats differ from stand-alone:\n dist %+v\n solo %+v", dist.Stats, solo.Stats)
	}
}

// TestExecutorSubmitStreaming: batched ingest through Submit preserves every
// tuple, keeps partitions balanced under the running capacity, is
// deterministic, and cleans with quality comparable to the whole-table path.
func TestExecutorSubmitStreaming(t *testing.T) {
	truth, dirty, rs := equivalenceFixture(t)

	run := func() *Result {
		ex, err := NewExecutor(dirty.Schema, rs, Options{Workers: 4, Seed: 1, Core: core.Options{Tau: 2}, BatchSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		// Feed the table in three uneven batches.
		bounds := []int{dirty.Len() / 5, dirty.Len() / 2, dirty.Len()}
		lo := 0
		for _, hi := range bounds {
			batch := dataset.NewTable(dirty.Schema)
			for _, tp := range dirty.Tuples[lo:hi] {
				batch.MustAppend(tp.Values...)
			}
			if err := ex.Submit(batch); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		res, err := ex.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run()
	if res.Repaired.Len() != dirty.Len() {
		t.Fatalf("streaming lost tuples: %d != %d", res.Repaired.Len(), dirty.Len())
	}
	for i, tp := range res.Repaired.Tuples {
		if tp.ID != i {
			t.Fatalf("tuple %d has ID %d, want sequential re-IDs", i, tp.ID)
		}
	}
	total, maxPart := 0, 0
	for _, n := range res.PartSizes {
		total += n
		if n > maxPart {
			maxPart = n
		}
	}
	if total != dirty.Len() {
		t.Errorf("partition sizes sum to %d, want %d", total, dirty.Len())
	}
	if capacity := (dirty.Len() + 3) / 4; maxPart > capacity {
		t.Errorf("partition of %d tuples exceeds running capacity %d", maxPart, capacity)
	}
	q := eval.RepairQuality(truth, dirty, res.Repaired)
	t.Logf("streaming F1 = %.3f, parts = %v", q.F1, res.PartSizes)
	if q.F1 < 0.7 {
		t.Errorf("streaming F1 = %.3f, want ≥ 0.7", q.F1)
	}

	again := run()
	if d := res.Repaired.Diff(again.Repaired); len(d) != 0 {
		t.Errorf("streaming output not deterministic: %d differing cells", len(d))
	}
}

// TestExecutorMoreWorkersThanTuples: workers beyond the tuple count receive
// empty partitions and the run still completes.
func TestExecutorMoreWorkersThanTuples(t *testing.T) {
	rs := rules.MustParseStrings("FD: A -> B")
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	for _, row := range [][]string{{"x", "1"}, {"x", "1"}, {"x", "2"}, {"y", "3"}, {"z", "4"}} {
		tb.MustAppend(row...)
	}
	ex, err := NewExecutor(tb.Schema, rs, Options{Workers: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Submit(tb); err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired.Len() != tb.Len() {
		t.Errorf("repaired %d tuples, want %d", res.Repaired.Len(), tb.Len())
	}
}

// TestExecutorMisuse: schema mismatches and post-Run submissions fail
// cleanly, and an empty run reports an error.
func TestExecutorMisuse(t *testing.T) {
	rs := rules.MustParseStrings("FD: A -> B")
	schema := dataset.MustSchema("A", "B")

	ex, err := NewExecutor(schema, rs, Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err == nil {
		t.Error("empty run should fail")
	}
	if err := ex.Submit(dataset.NewTable(schema)); err == nil {
		t.Error("submit after run should fail")
	}

	ex2, err := NewExecutor(schema, rs, Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := dataset.NewTable(dataset.MustSchema("X"))
	bad.MustAppend("v")
	if err := ex2.Submit(bad); err == nil {
		t.Error("mismatched batch schema should fail")
	}
	tb := dataset.NewTable(schema)
	tb.MustAppend("x", "1")
	tb.MustAppend("x", "2")
	if err := ex2.Submit(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := ex2.Run(); err != nil {
		t.Fatal(err)
	}

	if _, err := NewExecutor(nil, rs, Options{}); err == nil {
		t.Error("nil schema should fail")
	}
	if _, err := NewExecutor(schema, nil, Options{}); err == nil {
		t.Error("empty rule set should fail")
	}

	// Close releases an abandoned executor; Run and Submit fail afterwards.
	ex3, err := NewExecutor(schema, rs, Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex3.Close()
	ex3.Close() // idempotent
	if err := ex3.Submit(tb); err == nil {
		t.Error("submit after close should fail")
	}
	if _, err := ex3.Run(); err == nil {
		t.Error("run after close should fail")
	}
}

// TestCleanKeepDuplicates: the distributed gather honors
// Core.KeepDuplicates like the stand-alone cleaner does.
func TestCleanKeepDuplicates(t *testing.T) {
	rs := rules.MustParseStrings("FD: A -> B")
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("x", "1")
	tb.MustAppend("x", "1")
	tb.MustAppend("y", "2")

	res, err := Clean(tb, rs, Options{Workers: 2, Seed: 1, Core: core.Options{KeepDuplicates: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean.Len() != tb.Len() {
		t.Errorf("keep-duplicates dropped rows: %d != %d", res.Clean.Len(), tb.Len())
	}
	if res.Stats.DuplicatesRemoved != 0 {
		t.Errorf("DuplicatesRemoved = %d with KeepDuplicates", res.Stats.DuplicatesRemoved)
	}

	res, err = Clean(tb, rs, Options{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean.Len() != 2 || res.Stats.DuplicatesRemoved != 1 {
		t.Errorf("default dedup: clean=%d removed=%d, want 2 and 1", res.Clean.Len(), res.Stats.DuplicatesRemoved)
	}
}
