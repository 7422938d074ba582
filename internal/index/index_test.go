package index

import (
	"fmt"
	"math/rand"
	"reflect"
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
	// A tuple may be shorter than the schema (its encoded row is padded),
	// never wider.
	short := sampleTable(t)
	short.Tuples[1].Values = short.Tuples[1].Values[:2]
	if _, err := Build(short, sampleRules(t)); err != nil {
		t.Errorf("short tuple: %v", err)
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
	// Pieces differ ({x,1} vs {y,1}), so both survive.
	if len(dst.Pieces) != 2 {
		t.Errorf("pieces = %d, want 2", len(dst.Pieces))
	}
	// Merging a group with an identical-valued piece accumulates TupleIDs.
	tb2 := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb2.MustAppend("x", "1")
	ix2, _ := Build(tb2, rs)
	b2 := ix2.Blocks[0]
	g := b2.Groups[0]
	dup := NewPiece(rs[0], ix2.Dict(), []string{"x"}, []string{"1"})
	dup.TupleIDs = []int{9}
	clone := &Group{Pieces: []*Piece{dup}}
	b2.Groups = append(b2.Groups, clone)
	b2.MergeGroups(clone, g)
	if len(g.Pieces) != 1 || g.Pieces[0].Count() != 2 {
		t.Errorf("identical pieces should merge: %v", g.Pieces)
	}
}

func TestIndexTableAccessor(t *testing.T) {
	tb := sampleTable(t)
	ix, _ := Build(tb, sampleRules(t))
	if ix.Table() != tb {
		t.Error("Table accessor")
	}
}

// TestPieceSummariesRoundTrip: summaries report every piece's identity,
// support and weight, one per piece.
func TestPieceSummariesRoundTrip(t *testing.T) {
	tb := sampleTable(t)
	ix, _ := Build(tb, sampleRules(t))
	var want int
	for _, b := range ix.Blocks {
		for _, g := range b.Groups {
			for pi, p := range g.Pieces {
				p.Weight = float64(pi + 1)
				want++
			}
		}
	}
	sums := ix.PieceSummaries()
	if len(sums) != want {
		t.Fatalf("summaries = %d, want %d", len(sums), want)
	}
	seen := make(map[string]bool)
	for _, s := range sums {
		if s.Count < 1 || s.RuleID == "" || s.Key == "" {
			t.Errorf("bad summary %+v", s)
		}
		k := s.RuleID + "|" + s.Key
		if seen[k] {
			t.Errorf("duplicate summary identity %s", k)
		}
		seen[k] = true
	}
}
