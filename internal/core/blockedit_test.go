package core

import (
	"fmt"
	"slices"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// haiSession is a HAI table of about rows tuples with 5 % errors, loaded
// into an engine as carSession loads CAR.
func haiSession(tb testing.TB, rows int) (*DeltaCleaner, *errgen.Injection) {
	tb.Helper()
	const seed = 4200
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: rows / 14, Measures: 14, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: seed + 1})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := NewDeltaCleaner(inj.Dirty.Schema, rs, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.LoadVersion(inj.Dirty); err != nil {
		tb.Fatal(err)
	}
	return eng, inj
}

// keptMatchesBuild fails unless every block the engine keeps is the block
// BuildBlockFor lays out for the engine's current table: group order, piece
// order, group and piece KeyIDs, value IDs and tuple lists, with no empty
// piece or group.
func keptMatchesBuild(t *testing.T, label string, eng *DeltaCleaner) {
	t.Helper()
	enc := &dataset.Encoded{Dict: eng.dict, Rows: eng.encRows}
	for ri, db := range eng.blocks {
		got, want := db.kept.Block(), index.BuildBlockFor(eng.view(), enc, eng.rs[ri])
		if err := sameBlock(got, want); err != nil {
			t.Fatalf("%s: block %d (%s): %v", label, ri, eng.rs[ri].ID, err)
		}
	}
}

// sameBlock compares a kept block with a fresh build, field by field.
func sameBlock(got, want *index.Block) error {
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d groups, the build has %d", len(got.Groups), len(want.Groups))
	}
	for gi, g := range got.Groups {
		w := want.Groups[gi]
		if len(g.Pieces) == 0 {
			return fmt.Errorf("group %d is empty", gi)
		}
		if g.KeyID() != w.KeyID() || !slices.Equal(g.ReasonIDs(), w.ReasonIDs()) || len(g.Pieces) != len(w.Pieces) {
			return fmt.Errorf("group %d: key %d reason %v with %d pieces, the build's key %d reason %v with %d",
				gi, g.KeyID(), g.ReasonIDs(), len(g.Pieces), w.KeyID(), w.ReasonIDs(), len(w.Pieces))
		}
		for pi, p := range g.Pieces {
			q := w.Pieces[pi]
			if len(p.TupleIDs) == 0 {
				return fmt.Errorf("group %d piece %d is empty", gi, pi)
			}
			if p.KeyID() != q.KeyID() || !slices.Equal(p.ValueIDs(), q.ValueIDs()) || !slices.Equal(p.TupleIDs, q.TupleIDs) {
				return fmt.Errorf("group %d piece %d: key %d ids %v tuples %v, the build's key %d ids %v tuples %v",
					gi, pi, p.KeyID(), p.ValueIDs(), p.TupleIDs, q.KeyID(), q.ValueIDs(), q.TupleIDs)
			}
		}
	}
	return nil
}

// members counts the tuples a block holds.
func members(b *index.Block) int {
	n := 0
	for _, g := range b.Groups {
		n += g.TupleCount()
	}
	return n
}

// keptArrays is the length and the capacity of every array the engine's
// kept blocks hold, summed: groups, piece lists and tuple lists.
func keptArrays(eng *DeltaCleaner) (n, c int) {
	for _, db := range eng.blocks {
		b := db.kept.Block()
		n, c = n+len(b.Groups), c+cap(b.Groups)
		for _, g := range b.Groups {
			n, c = n+len(g.Pieces), c+cap(g.Pieces)
			for _, p := range g.Pieces {
				n, c = n+len(p.TupleIDs), c+cap(p.TupleIDs)
			}
		}
	}
	return n, c
}

// TestDeltaBlockEditMatchesBuild: an Apply edits the blocks it dirties in
// place instead of building them again, and the edited block must be the
// build's. After every mutation of the serving mix, on CAR and on HAI, each
// kept block equals BuildBlockFor over the engine's table, each version
// index placed only where groups moved equals a placement from scratch, and
// the arrays the
// kept blocks hold are never more than twice what they hold: an emptied
// piece or group is dropped, and a list grows only when an insert finds it
// full.
func TestDeltaBlockEditMatchesBuild(t *testing.T) {
	for _, name := range []string{"CAR", "HAI"} {
		t.Run(name, func(t *testing.T) {
			var eng *DeltaCleaner
			var inj *errgen.Injection
			if name == "CAR" {
				eng, _, inj = carSession(t, 600)
			} else {
				eng, inj = haiSession(t, 420)
			}
			keptMatchesBuild(t, "load", eng)
			const steps = 300
			for step, m := range serveMix(inj, steps, 4200) {
				if _, _, err := eng.ApplyVersion([]Mutation{m}); err != nil {
					t.Fatal(err)
				}
				keptMatchesBuild(t, fmt.Sprintf("step %d (%+v)", step, m), eng)
				for bi := range eng.plan.blocks {
					if !slices.Equal(eng.plan.versionOf[bi], placedVersions(eng, bi)) {
						t.Fatalf("step %d: block %d's version index is not its placement", step, bi)
					}
				}
				if n, c := keptArrays(eng); c > 2*n {
					t.Fatalf("step %d: the kept blocks' arrays hold %d elements in a capacity of %d", step, n, c)
				}
			}
			n, c := keptArrays(eng)
			t.Logf("after %d mutations the kept blocks' arrays hold %d elements in a capacity of %d", steps, n, c)
			assertParity(t, "last step", eng.cur.Result(), eng.Weights(), eng.Table(), eng.rs, eng.opts)
		})
	}
}

// TestDeltaBlockEditEdges: the edits whose bookkeeping the serving mix may
// not reach — a group's or a piece's first tuple deleted, inserts below the
// lowest and above the highest ID, an update that flips the CFD's
// membership, one that empties a group, a batch that deletes an ID and
// re-inserts it (with other values, and with its own where fusion repairs
// it), and a CFD constant no row held at Load. After each batch every kept
// block must be the build's, every version index a placement from scratch,
// and the version must be Clean's.
func TestDeltaBlockEditEdges(t *testing.T) {
	eng, _, _ := carSession(t, 300)
	var err error
	schema := eng.schema
	row := func(id int) []string {
		t.Helper()
		pos, ok := eng.posOf(id)
		if !ok {
			t.Fatalf("tuple %d is not live", id)
		}
		return slices.Clone(eng.tuples[pos].Values)
	}
	apply := func(label string, muts ...Mutation) {
		t.Helper()
		res, _, err := eng.Apply(muts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		keptMatchesBuild(t, label, eng)
		for bi := range eng.plan.blocks {
			if !slices.Equal(eng.plan.versionOf[bi], placedVersions(eng, bi)) {
				t.Fatalf("%s: block %d's version index is not its placement", label, bi)
			}
		}
		assertParity(t, label, res, eng.Weights(), eng.Table(), eng.rs, eng.opts)
	}
	// A group of two pieces or more, whose piece k holds two tuples or more,
	// in any block; and the FD block with the most groups.
	contested := func(k int) *index.Group {
		t.Helper()
		for _, db := range eng.blocks {
			for _, g := range db.kept.Block().Groups {
				if len(g.Pieces) > 1 && len(g.Pieces[k].TupleIDs) > 1 {
					return g
				}
			}
		}
		t.Fatalf("no group holds two pieces whose piece %d holds two tuples", k)
		return nil
	}
	fd := 0
	for ri, r := range eng.rs {
		if r.Kind != rules.CFD && len(eng.blocks[ri].kept.Block().Groups) > len(eng.blocks[fd].kept.Block().Groups) {
			fd = ri
		}
	}
	groups := func() []*index.Group { return eng.blocks[fd].kept.Block().Groups }

	apply("delete a group's first tuple", Mutation{Op: DeltaDelete, Row: contested(0).Pieces[0].TupleIDs[0]})
	apply("delete a piece's first tuple", Mutation{Op: DeltaDelete, Row: contested(1).Pieces[1].TupleIDs[0]})

	lowest, highest := eng.ids[0], eng.ids[len(eng.ids)-1]
	vals := row(eng.ids[len(eng.ids)/2])
	apply("delete the lowest ID", Mutation{Op: DeltaDelete, Row: lowest})
	apply("insert below the lowest ID", Mutation{Op: DeltaPut, Row: lowest, Values: vals})
	apply("insert above the highest ID", Mutation{Op: DeltaPut, Row: highest + 1000, Values: vals})

	cfd := slices.IndexFunc(eng.rs, func(r *rules.Rule) bool { return r.Kind == rules.CFD })
	makePos := schema.MustIndex("Make")
	for _, in := range []bool{true, false} {
		at := slices.IndexFunc(eng.tuples, func(tp *dataset.Tuple) bool { return (tp.Values[makePos] == "acura") != in })
		id := eng.ids[at]
		v := row(id)
		v[makePos] = map[bool]string{true: "acura", false: "honda"}[in]
		was := members(eng.blocks[cfd].kept.Block())
		apply(fmt.Sprintf("flip tuple %d's CFD membership to %v", id, in), Mutation{Op: DeltaPut, Row: id, Values: v})
		if now, want := members(eng.blocks[cfd].kept.Block()), was+map[bool]int{true: 1, false: -1}[in]; now != want {
			t.Fatalf("the CFD's block holds %d tuples after the flip, want %d", now, want)
		}
	}

	// A group of one tuple moved into another group's reason empties it.
	at := slices.IndexFunc(groups(), func(g *index.Group) bool { return g.TupleCount() == 1 })
	if at < 0 {
		t.Fatal("no group holds one tuple")
	}
	lone, other := groups()[at], groups()[(at+1)%len(groups())]
	id := lone.Pieces[0].TupleIDs[0]
	v, src := row(id), row(other.Pieces[0].TupleIDs[0])
	for _, p := range eng.rs[fd].Reason {
		pos := schema.MustIndex(p.Attr)
		v[pos] = src[pos]
	}
	was := len(groups())
	apply("empty a group", Mutation{Op: DeltaPut, Row: id, Values: v})
	if len(groups()) != was-1 {
		t.Fatalf("moving the lone tuple of a group left %d groups, was %d", len(groups()), was)
	}

	id = eng.ids[len(eng.ids)/3]
	apply("delete and re-insert one ID in one batch",
		Mutation{Op: DeltaDelete, Row: id}, Mutation{Op: DeltaPut, Row: id, Values: row(eng.ids[0])})
	// The same with the row's own values, for a row fusion repairs: its
	// pieces lost RSC, so it lands back in the groups it left, and only its
	// versions there repair it.
	at = slices.IndexFunc(eng.fuseRes, func(r fuseResult) bool { return r.changes > 0 && r.conflicted == 0 })
	if at < 0 {
		t.Fatal("no tuple is repaired without a conflict")
	}
	id = eng.ids[at]
	apply("delete and re-put a repaired row's own values in one batch",
		Mutation{Op: DeltaDelete, Row: id}, Mutation{Op: DeltaPut, Row: id, Values: row(id)})

	// A CFD constant no row held at Load: the row that brings it in joins
	// the CFD's block.
	tb, rs := carDirty(t, 60, 3)
	for _, tp := range tb.Tuples {
		if tp.Values[makePos] == "acura" {
			tp.Values[makePos] = "honda"
		}
	}
	if eng, err = NewDeltaCleaner(tb.Schema, rs, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(tb); err != nil {
		t.Fatal(err)
	}
	v = row(eng.ids[7])
	v[makePos] = "acura"
	apply("bring in the CFD's constant", Mutation{Op: DeltaPut, Row: eng.ids[7], Values: v})
	if n := members(eng.blocks[cfd].kept.Block()); n != 1 {
		t.Fatalf("the CFD's block holds %d tuples, want the one acura", n)
	}
}
