package distributed

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
)

// goldenDigest is the SHA-256 of everything a run returns that does not
// depend on the clock: the Repaired and Clean tables as CSV with their tuple
// IDs, the Stats counters and the partition sizes.
func goldenDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	for _, tb := range []*dataset.Table{res.Repaired, res.Clean} {
		if err := tb.WriteCSV(h); err != nil {
			t.Fatal(err)
		}
		for _, tu := range tb.Tuples {
			fmt.Fprintf(h, "%d,", tu.ID)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "%+v\n%v\n", res.Stats, res.PartSizes)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenTPCH is the TPC-H table at the benchmark suite's small scale.
func goldenTPCH(t *testing.T) (*dataset.Table, []*rules.Rule) {
	t.Helper()
	truth, rs, err := datagen.TPCH(datagen.TPCHConfig{Customers: 150, Rows: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.1, ReplacementRatio: 0.5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	return inj.Dirty, rs
}

// readGolden loads testdata/golden.txt: one "name digest" line per run.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDistributedOutputGolden pins every byte both entry points return —
// Clean's Algorithm 3 and CleanStream's online partitioner at the default
// BatchSize and at 64 — on HAI and TPC-H at k ∈ {1, 2, 4, 8}, plus one run
// without the Eq. 6 merge, to digests taken before the executor lost its
// message protocol. The digests are never regenerated: a run that moves
// one of them changed the algorithm's output.
func TestDistributedOutputGolden(t *testing.T) {
	want := readGolden(t)
	_, hai, haiRules := equivalenceFixture(t)
	tpch, tpchRules := goldenTPCH(t)
	inputs := []struct {
		name  string
		dirty *dataset.Table
		rs    []*rules.Rule
	}{{"hai", hai, haiRules}, {"tpch", tpch, tpchRules}}

	check := func(name string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := goldenDigest(t, res)
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest (got %s)", name, got)
		} else if got != w {
			t.Errorf("%s: digest %s, golden %s", name, got, w)
		}
	}
	stream := func(tb *dataset.Table) dataset.RowStream {
		var csv bytes.Buffer
		if err := tb.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		s, err := dataset.StreamCSV(&csv)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, in := range inputs {
		for _, k := range []int{1, 2, 4, 8} {
			opts := Options{Workers: k, Seed: 1, Core: core.Options{Tau: 2}}
			res, err := Clean(in.dirty, in.rs, opts)
			check(fmt.Sprintf("%s/clean/k=%d", in.name, k), res, err)
			for _, bs := range []int{0, 64} {
				opts.BatchSize = bs
				res, err := CleanStream(context.Background(), stream(in.dirty), in.rs, opts)
				check(fmt.Sprintf("%s/stream/batch=%d/k=%d", in.name, bs, k), res, err)
			}
		}
	}
	res, err := Clean(hai, haiRules, Options{Workers: 4, Seed: 1, Core: core.Options{Tau: 2}, SkipWeightMerge: true})
	check("hai/clean/skip-merge/k=4", res, err)
}
