package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mlnclean/internal/dataset"
	"mlnclean/internal/rules"
)

func sampleTable(t *testing.T) *dataset.Table {
	t.Helper()
	tb := dataset.NewTable(dataset.MustSchema("HN", "CT", "ST", "PN"))
	tb.MustAppend("ALABAMA", "DOTHAN", "AL", "3347938701")
	tb.MustAppend("ALABAMA", "DOTH", "AL", "3347938701")
	tb.MustAppend("ELIZA", "DOTHAN", "AL", "2567638410")
	tb.MustAppend("ELIZA", "BOAZ", "AK", "2567688400")
	tb.MustAppend("ELIZA", "BOAZ", "AL", "2567688400")
	tb.MustAppend("ELIZA", "BOAZ", "AL", "2567688400")
	return tb
}

func sampleRules(t *testing.T) []*rules.Rule {
	t.Helper()
	return rules.MustParseStrings(
		"FD: CT -> ST",
		"DC: not(PN(t)=PN(t') and ST(t)!=ST(t'))",
		"CFD: HN=ELIZA, CT=BOAZ -> PN=2567688400",
	)
}

// dumpIndex renders an index's observable structure — block, group, and
// piece order, decoded identities, and supporting tuples — so two builds
// can be compared byte-for-byte. The raw hash-consed IDs are deliberately
// omitted: they are minted in first-encounter order across the dictionary,
// while everything the pipeline's output depends on (decoded values,
// group/piece order, tuple membership) must match.
func dumpIndex(ix *Index) string {
	var sb strings.Builder
	for bi, b := range ix.Blocks {
		fmt.Fprintf(&sb, "block %d rule %s\n", bi, b.Rule.ID)
		for gi, g := range b.Groups {
			fmt.Fprintf(&sb, "  group %d key=%q\n", gi, g.Key())
			for pi, p := range g.Pieces {
				fmt.Fprintf(&sb, "    piece %d key=%q tuples=%v\n", pi, p.Key(), p.TupleIDs)
			}
		}
	}
	return sb.String()
}

// plannedRules mixes the rule shapes a build meets: a multi-attribute FD
// over a near-unique attribute, a CFD with a rare constant, and a
// single-attribute FD.
func plannedRules(t *testing.T) []*rules.Rule {
	t.Helper()
	return rules.MustParseStrings(
		"FD: CT, PN -> ST",
		"CFD: HN=ELIZA, CT -> PN",
		"FD: CT -> ST",
	)
}

// plannedTable generates a table for plannedRules: PN is near-unique, CT has
// a handful of values, HN=ELIZA is rare.
func plannedTable(t *testing.T) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tb := dataset.NewTable(dataset.MustSchema("HN", "CT", "ST", "PN"))
	cities := []string{"DOTHAN", "BOAZ", "MOBILE", "AUBURN"}
	for i := 0; i < 120; i++ {
		hn := "OTHER"
		if i%40 == 0 {
			hn = "ELIZA"
		}
		ct := cities[rng.Intn(len(cities))]
		st := "AL"
		if rng.Intn(10) == 0 {
			st = "AK"
		}
		pn := fmt.Sprintf("33479%05d", rng.Intn(90)) // duplicates exist
		tb.MustAppend(hn, ct, st, pn)
	}
	return tb
}

// TestPlanReportsFullScan: every block is one pass over all rows, and Plan
// says so — one full-scan choice per rule, in rule order, whether the index
// came from BuildConfigured or a drained iterator — the rare CFD constant
// included, the one rule where a narrower scan looks tempting.
func TestPlanReportsFullScan(t *testing.T) {
	rs := plannedRules(t)
	built, err := BuildConfigured(plannedTable(t), rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewBlockIterator(plannedTable(t), rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
	}
	for name, ix := range map[string]*Index{"built": built, "iterated": it.Index()} {
		cs := ix.Plan().Choices()
		if len(cs) != len(rs) {
			t.Fatalf("%s: %d choices, want one per rule (%d)", name, len(cs), len(rs))
		}
		for i, c := range cs {
			if c.RuleID != rs[i].ID || c.Scan != "full-scan" {
				t.Errorf("%s: choice %d = {%s %s}, want {%s full-scan}", name, i, c.RuleID, c.Scan, rs[i].ID)
			}
		}
	}
}

func TestBuildShape(t *testing.T) {
	ix, err := Build(sampleTable(t), sampleRules(t))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st := ix.Stats()
	if st.Blocks != 3 {
		t.Errorf("blocks = %d", st.Blocks)
	}
	if got := []int{len(ix.Blocks[0].Groups), len(ix.Blocks[1].Groups), len(ix.Blocks[2].Groups)}; !reflect.DeepEqual(got, []int{3, 3, 2}) {
		t.Errorf("groups per block = %v, want [3 3 2] (Fig. 2)", got)
	}
}

func TestBuildValidation(t *testing.T) {
	tb := sampleTable(t)
	if _, err := Build(tb, nil); err == nil {
		t.Error("no rules should fail")
	}
	if _, err := Build(tb, rules.MustParseStrings("FD: CT -> Missing")); err == nil {
		t.Error("schema mismatch should fail")
	}
	// A tuple is exactly as wide as the schema: an encoded row is
	// schema-wide, and padding would read as the table's first value.
	short := sampleTable(t)
	short.Tuples[1].Values = short.Tuples[1].Values[:2]
	if _, err := Build(short, sampleRules(t)); err == nil || !strings.Contains(err.Error(), "tuple 1 has 2 values") {
		t.Errorf("short tuple: error %v, want one naming tuple 1", err)
	}
	wide := sampleTable(t)
	wide.Tuples[1].Values = append(wide.Tuples[1].Values, "extra")
	if _, err := Build(wide, sampleRules(t)); err == nil || !strings.Contains(err.Error(), "tuple 1 has 5 values") {
		t.Errorf("wide tuple: error %v, want one naming tuple 1", err)
	}
}

func TestPieceAccessors(t *testing.T) {
	ix, _ := Build(sampleTable(t), sampleRules(t))
	b1 := ix.Blocks[0]
	g := b1.Group(dataset.JoinKey([]string{"BOAZ"}))
	if g == nil {
		t.Fatal("group BOAZ missing")
	}
	if len(g.Pieces) != 2 {
		t.Fatalf("BOAZ pieces = %d, want 2 (AL and AK)", len(g.Pieces))
	}
	star := g.Star()
	if star.Result()[0] != "AL" {
		t.Errorf("γ⋆ should be the 2-tuple AL piece, got %v", star.Values())
	}
	if star.Count() != 2 {
		t.Errorf("γ⋆ count = %d", star.Count())
	}
	if star.GroupKey() != g.Key() {
		t.Errorf("GroupKey = %q", star.GroupKey())
	}
	if g.TupleCount() != 3 {
		t.Errorf("TupleCount = %d", g.TupleCount())
	}
	if s := star.String(); s == "" {
		t.Error("Piece.String empty")
	}
}

func TestEveryTupleInExactlyOneGroupPerBlock(t *testing.T) {
	tb := sampleTable(t)
	rs := sampleRules(t)
	ix, _ := Build(tb, rs)
	for bi, b := range ix.Blocks {
		seen := make(map[int]int)
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				for _, id := range p.TupleIDs {
					seen[id]++
				}
			}
		}
		for _, tp := range tb.Tuples {
			want := 0
			if rs[bi].AppliesTo(tb, tp) {
				want = 1
			}
			if seen[tp.ID] != want {
				t.Errorf("block %d tuple %d appears %d times, want %d", bi, tp.ID, seen[tp.ID], want)
			}
		}
	}
}

// TestIndexPartitionProperty: on random tables, every tuple lands in exactly
// one group per block and the group key always equals the tuple's reason
// projection.
func TestIndexPartitionProperty(t *testing.T) {
	rs := rules.MustParseStrings("FD: A -> B")
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := dataset.NewTable(dataset.MustSchema("A", "B"))
		rows := int(n%40) + 1
		for i := 0; i < rows; i++ {
			tb.MustAppend(fmt.Sprint(rng.Intn(5)), fmt.Sprint(rng.Intn(3)))
		}
		ix, err := Build(tb, rs)
		if err != nil {
			return false
		}
		total := 0
		for _, g := range ix.Blocks[0].Groups {
			for _, p := range g.Pieces {
				if p.GroupKey() != g.Key() {
					return false
				}
				total += len(p.TupleIDs)
			}
		}
		return total == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMergeGroups(t *testing.T) {
	ix, _ := Build(sampleTable(t), sampleRules(t))
	b := ix.Blocks[0]
	src := b.Group(dataset.JoinKey([]string{"DOTH"}))
	dst := b.Group(dataset.JoinKey([]string{"DOTHAN"}))
	before := len(b.Groups)
	srcPieces := len(src.Pieces)
	dstPieces := len(dst.Pieces)
	b.MergeGroups(src, dst)
	if len(src.Pieces) != 0 || len(b.Groups) != before {
		t.Errorf("before DropEmpty: source keeps %d pieces, %d groups", len(src.Pieces), len(b.Groups))
	}
	b.DropEmpty()
	if len(b.Groups) != before-1 {
		t.Errorf("groups after merge = %d", len(b.Groups))
	}
	if b.Group(dataset.JoinKey([]string{"DOTH"})) != nil {
		t.Error("source group still addressable")
	}
	if len(dst.Pieces) != srcPieces+dstPieces {
		t.Errorf("merged pieces = %d", len(dst.Pieces))
	}
}

func TestMergeGroupsCombinesIdenticalPieces(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("x", "1")
	tb.MustAppend("y", "1")
	rs := rules.MustParseStrings("FD: A -> B")
	ix, _ := Build(tb, rs)
	b := ix.Blocks[0]
	src := b.Group(dataset.JoinKey([]string{"y"}))
	dst := b.Group(dataset.JoinKey([]string{"x"}))
	b.MergeGroups(src, dst)
	// The groups' reasons differ, so their pieces do ({x,1} vs {y,1}): both
	// survive.
	if len(dst.Pieces) != 2 {
		t.Errorf("pieces = %d, want 2", len(dst.Pieces))
	}
}

// TestMergeRunsMatchesSort: Collapse's merge of a group's ascending tuple
// lists gives what sorting their concatenation gives, for groups of one to
// a dozen pieces, with the lists interleaved,
// nested and empty in every way a random split makes them; and each merge
// step (mergeRun) keeps the merged prefix ascending on its own.
func TestMergeRunsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 2000; round++ {
		k := 1 + rng.Intn(12)
		ids := rng.Perm(1 + rng.Intn(40))
		ps := make([]*Piece, k)
		for i := range ps {
			ps[i] = &Piece{}
		}
		for _, id := range ids {
			p := ps[rng.Intn(k)]
			p.TupleIDs = append(p.TupleIDs, id)
		}
		var want []int
		for _, p := range ps {
			slices.Sort(p.TupleIDs)
			want = append(want, p.TupleIDs...)
		}
		if k > 1 {
			slices.Sort(want)
		}
		// A list already in the slab stays as it is.
		dst := make([]int, 1, 1+len(ids))
		dst[0] = -1
		if got := mergeRuns(dst, ps); got[0] != -1 || !slices.Equal(got[1:], want) {
			t.Fatalf("round %d: %d pieces merge to %v, want %v", round, k, got, want)
		}
		dst = append(dst[:1], ps[0].TupleIDs...)
		for i, p := range ps[1:] {
			if dst = mergeRun(dst, 1, p.TupleIDs); dst[0] != -1 || !slices.IsSorted(dst[1:]) {
				t.Fatalf("round %d: merging piece %d gives %v", round, i+1, dst)
			}
		}
		if !slices.Equal(dst[1:], want) {
			t.Fatalf("round %d: merging one piece at a time gives %v, want %v", round, dst[1:], want)
		}
	}
}
