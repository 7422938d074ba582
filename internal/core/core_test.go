package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

func TestCleanEmptyTableFails(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	if _, err := Clean(tb, rules.MustParseStrings("FD: A -> B"), Options{}); err == nil {
		t.Error("empty table should fail")
	}
	if _, err := Clean(nil, rules.MustParseStrings("FD: A -> B"), Options{}); err == nil {
		t.Error("nil table should fail")
	}
}

// TestCleanStability: cleaning the cleaner's own output again changes
// nothing further (a fixed point).
func TestCleanStability(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	for i := 0; i < 8; i++ {
		tb.MustAppend("k1", "v1")
	}
	tb.MustAppend("k1", "v2") // error
	rs := rules.MustParseStrings("FD: A -> B")
	first, err := Clean(tb, rs, Options{Tau: 1, KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Clean(first.Repaired, rs, Options{Tau: 1, KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := second.Repaired.Diff(first.Repaired); len(d) != 0 {
		t.Errorf("second pass changed %d cells", len(d))
	}
}

func TestRSCMajorityWins(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	for i := 0; i < 7; i++ {
		tb.MustAppend("key", "good")
	}
	tb.MustAppend("key", "goo") // typo
	rs := rules.MustParseStrings("FD: A -> B")
	res, err := Clean(tb, rs, Options{Tau: 0, TauSet: true, KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Repaired.Tuples {
		if got := res.Repaired.Cell(tp, "B"); got != "good" {
			t.Errorf("tuple %d B = %q, want good", tp.ID, got)
		}
	}
	if res.Stats.RSCRepairs != 1 {
		t.Errorf("RSC repairs = %d, want 1", res.Stats.RSCRepairs)
	}
}

func TestAGPMergesTypoGroup(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	for i := 0; i < 5; i++ {
		tb.MustAppend("alphaville", "x")
	}
	tb.MustAppend("alphavill", "x") // typo in the reason part
	rs := rules.MustParseStrings("FD: A -> B")
	tr := &Trace{}
	res, err := Clean(tb, rs, Options{Tau: 1, Trace: tr, KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.AGP) != 1 || tr.AGP[0].TargetKey != dataset.JoinKey([]string{"alphaville"}) {
		t.Fatalf("AGP trace: %+v", tr.AGP)
	}
	last := res.Repaired.Tuples[5]
	if got := res.Repaired.Cell(last, "A"); got != "alphaville" {
		t.Errorf("typo not repaired: %q", got)
	}
}

func TestMergeCapBlocksDistantMerge(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	for i := 0; i < 5; i++ {
		tb.MustAppend("aaaaaaaa", "x")
	}
	tb.MustAppend("zzzzzzzz", "y") // small but totally unrelated group
	rs := rules.MustParseStrings("FD: A -> B")
	tr := &Trace{}
	res, err := Clean(tb, rs, Options{Tau: 1, Trace: tr, KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.AGP) != 1 {
		t.Fatalf("AGP detections: %+v", tr.AGP)
	}
	if tr.AGP[0].TargetKey != "" {
		t.Errorf("distant group merged into %q; the cap should block it", tr.AGP[0].TargetKey)
	}
	last := res.Repaired.Tuples[5]
	if got := res.Repaired.Cell(last, "A"); got != "zzzzzzzz" {
		t.Errorf("unrelated tuple destroyed: %q", got)
	}
	// With the cap disabled (paper's unconditional merge), it does merge.
	tr2 := &Trace{}
	if _, err := Clean(tb, rs, Options{Tau: 1, MergeCapRatio: 10, Trace: tr2, KeepDuplicates: true}); err != nil {
		t.Fatal(err)
	}
	if tr2.AGP[0].TargetKey == "" {
		t.Error("unconditional merge should have merged")
	}
}

func TestTauZeroDisablesAGP(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("k", "v")
	tb.MustAppend("q", "w")
	rs := rules.MustParseStrings("FD: A -> B")
	tr := &Trace{}
	if _, err := Clean(tb, rs, Options{Tau: 0, TauSet: true, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.AGP) != 0 {
		t.Errorf("τ=0 should detect nothing, got %d", len(tr.AGP))
	}
}

func TestDedup(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("x", "1")
	tb.MustAppend("x", "1")
	tb.MustAppend("y", "2")
	tb.MustAppend("x", "1")
	out, dups := Dedup(tb)
	if out.Len() != 2 {
		t.Fatalf("deduped len = %d", out.Len())
	}
	if len(dups) != 1 || len(dups[0]) != 3 || dups[0][0] != 0 {
		t.Errorf("dups = %v", dups)
	}
	// Representative keeps the lowest ID.
	if out.Tuples[0].ID != 0 || out.Tuples[1].ID != 2 {
		t.Errorf("representatives: %d, %d", out.Tuples[0].ID, out.Tuples[1].ID)
	}
}

func TestKeepDuplicatesOption(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("x", "1")
	tb.MustAppend("x", "1")
	rs := rules.MustParseStrings("FD: A -> B")
	res, err := Clean(tb, rs, Options{KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean.Len() != 2 {
		t.Errorf("KeepDuplicates ignored: %d tuples", res.Clean.Len())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Tau != 1 {
		t.Errorf("default Tau = %d", o.Tau)
	}
	if o.Metric == nil || o.Metric.Name() != "levenshtein" {
		t.Error("default metric should be levenshtein")
	}
	if o.MinimalityPrior != 0.05 {
		t.Errorf("default MinimalityPrior = %v", o.MinimalityPrior)
	}
	if o.MergeCapRatio != 0.4 {
		t.Errorf("default MergeCapRatio = %v", o.MergeCapRatio)
	}
	// τ=0 is honoured only with TauSet.
	o2 := Options{Tau: 0, TauSet: true}.withDefaults()
	if o2.Tau != 0 {
		t.Errorf("TauSet zero overridden: %d", o2.Tau)
	}
	// Disabled minimality prior: ε = 0.5 costs a change nothing.
	o3 := Options{MinimalityPrior: 0.5}.withDefaults()
	if o3.changePenalty() != 1 {
		t.Errorf("disabled prior penalty = %v", o3.changePenalty())
	}
	if p := (Options{MinimalityPrior: 0.05}).withDefaults().changePenalty(); p <= 0 || p >= 1 {
		t.Errorf("penalty = %v, want in (0,1)", p)
	}
}

func TestCosineMetricRuns(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	for i := 0; i < 5; i++ {
		tb.MustAppend("stable", "val")
	}
	tb.MustAppend("stable", "va")
	rs := rules.MustParseStrings("FD: A -> B")
	if _, err := Clean(tb, rs, Options{Metric: distance.Cosine{}}); err != nil {
		t.Fatalf("cosine metric run failed: %v", err)
	}
}

// TestCleanNeverInventsValues: every repaired value must already occur
// somewhere in the dirty table's column (repairs draw from observed data).
func TestCleanNeverInventsValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := dataset.NewTable(dataset.MustSchema("A", "B"))
		for i := 0; i < 30; i++ {
			tb.MustAppend(fmt.Sprint("k", rng.Intn(4)), fmt.Sprint("v", rng.Intn(3)))
		}
		rs := rules.MustParseStrings("FD: A -> B")
		res, err := Clean(tb, rs, Options{Tau: 1, KeepDuplicates: true})
		if err != nil {
			return false
		}
		domA := map[string]bool{}
		domB := map[string]bool{}
		for _, tp := range tb.Tuples {
			domA[tb.Cell(tp, "A")] = true
			domB[tb.Cell(tp, "B")] = true
		}
		for _, tp := range res.Repaired.Tuples {
			if !domA[res.Repaired.Cell(tp, "A")] || !domB[res.Repaired.Cell(tp, "B")] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCleanDeterministic: identical inputs and options give identical
// outputs despite internal parallelism.
func TestCleanDeterministic(t *testing.T) {
	truth, rs, _ := datagen.CAR(datagen.CARConfig{Rows: 600, Seed: 5})
	a, err := Clean(truth, rs, Options{Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Clean(truth, rs, Options{Tau: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Repaired.Diff(b.Repaired); len(d) != 0 {
		t.Errorf("non-deterministic cleaning: %d diffs", len(d))
	}
}

func TestFusionBlockExports(t *testing.T) {
	// FSCR with no blocks changes nothing, and shares the input's tuples as
	// every other run shares those fusion leaves alone.
	tb := dataset.NewTable(dataset.MustSchema("A"))
	tb.MustAppend("x")
	out := RunFSCREncoded(tb, nil, nil, Options{}, nil)
	if d := out.Diff(tb); len(d) != 0 {
		t.Error("no-block FSCR changed data")
	}
	if out.Tuples[0] != tb.Tuples[0] {
		t.Error("no-block FSCR copied a tuple it left unchanged")
	}
	out.Tuples[0] = nil
	if tb.Tuples[0] == nil {
		t.Error("the repaired table's tuple slice is the input's")
	}
}

func TestMaxRuneLen(t *testing.T) {
	dict := intern.NewDict()
	ev := distance.NewEvaluator(distance.Levenshtein{}, dict)
	enc := func(vals ...string) []uint32 {
		out := make([]uint32, len(vals))
		for i, v := range vals {
			out[i] = dict.Intern(v)
		}
		return out
	}
	if got := maxRuneLen(ev, enc("ab", "c"), enc("dëfg")); got != 4 {
		t.Errorf("maxRuneLen = %d", got)
	}
	if got := maxRuneLen(ev, nil, nil); got != 0 {
		t.Errorf("maxRuneLen empty = %d", got)
	}
}

// TestStateTable: the search memo tells states apart by mask and by
// assignment (absent ≠ empty value), prunes a revisit that is no better,
// and survives growing past its initial capacity and being reset.
func TestStateTable(t *testing.T) {
	x := newFx("A", "B")
	attrs := []int{0, 1}
	var st stateTable
	st.reset(2 + len(attrs))
	a1 := x.assign(map[string]string{"A": "x"})
	a2 := x.assign(map[string]string{"A": "x", "B": "y"})
	if !st.improve(1, a1, attrs, 0.5) || !st.improve(1, a2, attrs, 0.5) {
		t.Error("different assignments share a state")
	}
	if !st.improve(2, a1, attrs, 0.5) || !st.improve(1<<40, a1, attrs, 0.5) {
		t.Error("different masks share a state")
	}
	// Absent attribute vs empty value must be distinguishable.
	if !st.improve(4, x.assign(map[string]string{"A": ""}), attrs, 0.5) || !st.improve(4, x.assign(nil), attrs, 0.5) {
		t.Error("empty value collides with absent attribute")
	}
	if st.improve(1, a1, attrs, 0.5) || st.improve(1, a1, attrs, 0.4) {
		t.Error("a revisit with no better score must be pruned")
	}
	if !st.improve(1, a1, attrs, 0.6) || st.improve(1, a1, attrs, 0.6) {
		t.Error("a better score must reopen the state once")
	}
	for m := uint64(100); m < 400; m++ { // grows several times
		if !st.improve(m, a2, attrs, 0.1) {
			t.Fatalf("fresh state %d reported as seen", m)
		}
	}
	for m := uint64(100); m < 400; m++ {
		if st.improve(m, a2, attrs, 0.1) {
			t.Fatalf("state %d lost in growth", m)
		}
	}
	st.reset(2 + len(attrs))
	if !st.improve(1, a1, attrs, 0.1) {
		t.Error("reset kept an entry")
	}
}

// TestAGPEquidistantTieBreak: with two equidistant normal targets the merge
// goes to the lexicographically smaller group key, whatever their support.
func TestAGPEquidistantTieBreak(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	// Two normal groups at edit distance 1 from the abnormal key
	// "corex": "corea" (2 tuples) and "corez" (9 tuples; later key).
	tb.MustAppend("corea", "v")
	tb.MustAppend("corea", "v")
	for i := 0; i < 9; i++ {
		tb.MustAppend("corez", "v")
	}
	tb.MustAppend("corex", "v") // abnormal singleton
	rs := rules.MustParseStrings("FD: A -> B")

	tr := &Trace{}
	if _, err := Clean(tb, rs, Options{Tau: 1, Trace: tr, KeepDuplicates: true}); err != nil {
		t.Fatal(err)
	}
	if got := tr.AGP[0].TargetKey; got != dataset.JoinKey([]string{"corea"}) {
		t.Errorf("merged into %q, want corea (lexicographic tie-break)", got)
	}
}
