package index

// Regression tests for the separator-collision class: dataset.JoinKey joins
// values with the 0x1f byte, so a value CONTAINING that byte makes two
// distinct projections render identically ({"x\x1fy"} vs {"x","y"}). The
// string-keyed index conflated such groups and pieces; the interned
// ID-sequence keys must keep them apart. JoinKey itself remains in use for
// display and evaluation only.

import (
	"testing"

	"mlnclean/internal/dataset"
	"mlnclean/internal/rules"
)

const sep = "\x1f"

// TestBuildSeparatesColladingReasonKeys: two tuples whose reason
// projections join to the same string must still land in distinct groups.
func TestBuildSeparatesCollidingReasonKeys(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B", "C"))
	// Both rows join their (A, B) projection to "x␟y␟z".
	tb.MustAppend("x"+sep+"y", "z", "c1")
	tb.MustAppend("x", "y"+sep+"z", "c2")
	rs := rules.MustParseStrings("FD: A, B -> C")
	ix, err := Build(tb, rs)
	if err != nil {
		t.Fatal(err)
	}
	b := ix.Blocks[0]
	if len(b.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 distinct groups despite identical joined keys", len(b.Groups))
	}
	g0, g1 := b.Groups[0], b.Groups[1]
	if g0.KeyID() == g1.KeyID() {
		t.Error("distinct reason sequences share a KeyID")
	}
	// The display keys DO collide — that is exactly the documented limit of
	// the joined form.
	if g0.Key() != g1.Key() {
		t.Errorf("expected display keys to collide (documenting the class): %q vs %q", g0.Key(), g1.Key())
	}
	if st := ix.Stats(); st.Pieces != 2 {
		t.Errorf("pieces = %d, want 2", st.Pieces)
	}
}

// TestBuildSeparatesCollidingPieceKeys: same group, but the reason/result
// boundary shifts inside the joined key.
func TestBuildSeparatesCollidingPieceKeys(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	// Same reason "k"; results "v␟w" vs "v" + a second attr... the piece
	// values join equal when a value swallows the separator.
	tb.MustAppend("k", "v"+sep+"w")
	tb.MustAppend("k"+sep+"v", "w")
	rs := rules.MustParseStrings("FD: A -> B")
	ix, err := Build(tb, rs)
	if err != nil {
		t.Fatal(err)
	}
	b := ix.Blocks[0]
	if len(b.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(b.Groups))
	}
	var kids []uint32
	for _, g := range b.Groups {
		for _, p := range g.Pieces {
			kids = append(kids, p.KeyID())
		}
	}
	if len(kids) != 2 || kids[0] == kids[1] {
		t.Errorf("pieces must keep distinct identities: %v", kids)
	}
}

// TestMergeGroupsKeepsCollidingPiecesApart: AGP-style merging must not
// conflate value-distinct pieces whose joined keys are equal.
func TestMergeGroupsKeepsCollidingPiecesApart(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("p"+sep+"q", "r")
	tb.MustAppend("p", "q"+sep+"r")
	rs := rules.MustParseStrings("FD: A -> B")
	ix, err := Build(tb, rs)
	if err != nil {
		t.Fatal(err)
	}
	b := ix.Blocks[0]
	if len(b.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(b.Groups))
	}
	src, dst := b.Groups[1], b.Groups[0]
	b.MergeGroups(src, dst)
	// The pieces' FULL values join identically ("p␟q␟r") but differ as
	// sequences, so both must survive the merge.
	if len(dst.Pieces) != 2 {
		t.Fatalf("merged pieces = %d, want 2 (joined-key collision must not conflate)", len(dst.Pieces))
	}
	if dst.Pieces[0].Key() != dst.Pieces[1].Key() {
		t.Error("expected the display keys to collide in this construction")
	}
}
