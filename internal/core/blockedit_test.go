package core

import (
	"fmt"
	"math"
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

// recleanMatchesFull fails unless every block the engine serves is what
// stage I makes of a copy of its kept block from scratch — runBlock with no
// memo, every group learned and picked: the same groups in the same order,
// with the same KeyIDs, each one RSC winner with the same value IDs, weight
// bits and tuple list, and the same counters.
func recleanMatchesFull(t *testing.T, label string, eng *DeltaCleaner) {
	t.Helper()
	for ri, db := range eng.blocks {
		kept := db.kept.Block()
		want := &index.Block{Rule: kept.Rule, Groups: index.CopyGroups(kept.Groups)}
		res := runBlock(ri, want, soloCrew(eng.evs[0]), eng.opts, phaseAll)
		if res.err != nil {
			t.Fatal(res.err)
		}
		got := db.res
		if g, w := [5]int{got.abnormal, got.abnormalPieces, got.promotions, got.learnIters, got.repairs},
			[5]int{res.abnormal, res.abnormalPieces, res.promotions, res.learnIters, res.repairs}; g != w {
			t.Fatalf("%s: block %d (%s): abnormal, #dag, promotions, learn steps, repairs %v, from scratch %v", label, ri, eng.rs[ri].ID, g, w)
		}
		if len(db.block.Groups) != len(want.Groups) {
			t.Fatalf("%s: block %d: %d groups, from scratch %d", label, ri, len(db.block.Groups), len(want.Groups))
		}
		for gi, g := range db.block.Groups {
			w := want.Groups[gi]
			if len(g.Pieces) != 1 {
				t.Fatalf("%s: block %d group %d holds %d pieces after RSC", label, ri, gi, len(g.Pieces))
			}
			p, q := g.Pieces[0], w.Pieces[0]
			if g.KeyID() != w.KeyID() || p.KeyID() != q.KeyID() || !slices.Equal(p.ValueIDs(), q.ValueIDs()) ||
				math.Float64bits(p.Weight) != math.Float64bits(q.Weight) || !slices.Equal(p.TupleIDs, q.TupleIDs) {
				t.Fatalf("%s: block %d group %d: key %d winner %d%v at %v over %v; from scratch key %d winner %d%v at %v over %v",
					label, ri, gi, g.KeyID(), p.KeyID(), p.ValueIDs(), p.Weight, p.TupleIDs, w.KeyID(), q.KeyID(), q.ValueIDs(), q.Weight, q.TupleIDs)
			}
		}
	}
}

// TestDeltaGroupReuseMatchesFull: a re-clean redoes only the groups its
// edit reached and reuses every other group the last re-clean left; the
// block must still be what stage I makes of the kept block from scratch.
// After every mutation of the serving mix on CAR and HAI, and on CAR at
// τ = 0, every block is checked against a from-scratch runBlock over a
// copy of its kept block (recleanMatchesFull). Then the edges the mix may
// not reach, each checked the same way and against Clean: an update that
// flips the CFD's membership; a batch that deletes an ID and puts it
// again; a normal group falling to τ, so its sources re-target another
// group its edit did not touch; a decision crossing the merge cap both
// ways without its source being touched; and a block with no normal group,
// into and out of its promotion.
func TestDeltaGroupReuseMatchesFull(t *testing.T) {
	mix := func(t *testing.T, eng *DeltaCleaner, inj *errgen.Injection, steps int) {
		recleanMatchesFull(t, "load", eng)
		reused := 0
		for step, m := range serveMix(inj, steps, 4200) {
			was := blocksOf(eng, nil)
			if _, _, err := eng.ApplyVersion([]Mutation{m}); err != nil {
				t.Fatal(err)
			}
			recleanMatchesFull(t, fmt.Sprintf("step %d (%+v)", step, m), eng)
			for _, ri := range rebuiltBlocks(eng, was) {
				if db := eng.blocks[ri]; db.res.regrouped < len(db.block.Groups) {
					reused++
				}
			}
		}
		if reused == 0 {
			t.Fatal("no re-clean reused a group: the mix never took the partial path")
		}
		t.Logf("%d re-cleans reused groups", reused)
	}
	t.Run("CAR", func(t *testing.T) {
		eng, _, inj := carSession(t, 600)
		mix(t, eng, inj, 300)
	})
	t.Run("HAI", func(t *testing.T) {
		eng, inj := haiSession(t, 420)
		mix(t, eng, inj, 300)
	})
	t.Run("CAR τ=0", func(t *testing.T) {
		base, _, inj := carSession(t, 600)
		eng, err := NewDeltaCleaner(inj.Dirty.Schema, base.rs, Options{Tau: 0, TauSet: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.LoadVersion(inj.Dirty); err != nil {
			t.Fatal(err)
		}
		mix(t, eng, inj, 90)
	})
	t.Run("CAR edges", func(t *testing.T) {
		eng, _, _ := carSession(t, 300)
		apply := func(label string, muts ...Mutation) {
			t.Helper()
			res, _, err := eng.Apply(muts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			recleanMatchesFull(t, label, eng)
			assertParity(t, label, res, eng.Weights(), eng.Table(), eng.rs, eng.opts)
		}
		row := func(id int) []string {
			pos, _ := eng.posOf(id)
			return slices.Clone(eng.tuples[pos].Values)
		}
		makePos := eng.schema.MustIndex("Make")
		for _, in := range []bool{true, false} {
			at := slices.IndexFunc(eng.tuples, func(tp *dataset.Tuple) bool { return (tp.Values[makePos] == "acura") != in })
			id := eng.ids[at]
			v := row(id)
			v[makePos] = map[bool]string{true: "acura", false: "honda"}[in]
			apply(fmt.Sprintf("flip tuple %d's CFD membership to %v", id, in), Mutation{Op: DeltaPut, Row: id, Values: v})
		}
		id := eng.ids[len(eng.ids)/3]
		apply("delete and put one ID in one batch", Mutation{Op: DeltaDelete, Row: id}, Mutation{Op: DeltaPut, Row: id, Values: row(eng.ids[0])})
		id = eng.ids[len(eng.ids)/2]
		apply("delete and put one ID back as it was", Mutation{Op: DeltaDelete, Row: id}, Mutation{Op: DeltaPut, Row: id, Values: row(id)})
	})
	t.Run("AGP edges", func(t *testing.T) {
		rule := rules.MustParseStrings("FD: A -> B")
		load := func(rows ...[]string) *DeltaCleaner {
			t.Helper()
			tb := dataset.NewTable(dataset.MustSchema("A", "B"))
			for _, r := range rows {
				tb.MustAppend(r...)
			}
			eng, err := NewDeltaCleaner(tb.Schema, rule, Options{Tau: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load(tb); err != nil {
				t.Fatal(err)
			}
			recleanMatchesFull(t, "load", eng)
			return eng
		}
		rep := func(n int, r ...string) [][]string {
			out := make([][]string, n)
			for i := range out {
				out[i] = r
			}
			return out
		}
		apply := func(eng *DeltaCleaner, label string, partial bool, muts ...Mutation) {
			t.Helper()
			res, _, err := eng.Apply(muts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			recleanMatchesFull(t, label, eng)
			assertParity(t, label, res, eng.Weights(), eng.Table(), eng.rs, eng.opts)
			if db := eng.blocks[0]; partial != (db.res.regrouped < len(db.block.Groups)) {
				t.Fatalf("%s: redid %d of %d groups, want a partial re-clean: %v", label, db.res.regrouped, len(db.block.Groups), partial)
			}
		}
		decision := func(eng *DeltaCleaner, a string) agpBest {
			t.Helper()
			e, ok := eng.blocks[0].memo.agp.best[seqOf(eng.dict, a)]
			if !ok {
				t.Fatalf("group %q is no source", a)
			}
			return e
		}
		put := func(id int, a, b string) Mutation { return Mutation{Op: DeltaPut, Row: id, Values: []string{a, b}} }

		// pariz merges into paris (a tie with parix, to the smaller
		// reason). Tuple 1 leaves paris, which falls to τ: pariz and paris
		// merge into parix, which no move touched.
		rows := append(rep(2, "paris", "1"), rep(2, "parix", "1")...)
		rows = append(rows, []string{"pariz", "1"})
		rows = append(rows, rep(3, "london", "2")...)
		eng := load(append(rows, rep(3, "qqqqqq", "9")...)...)
		if e := decision(eng, "pariz"); !e.merged || e.target != seqOf(eng.dict, "paris") {
			t.Fatalf("pariz decided %+v, want a merge into paris", e)
		}
		apply(eng, "a normal group falls to τ", true, put(1, "london", "2"))
		for _, a := range []string{"pariz", "paris"} {
			if e := decision(eng, a); !e.merged || e.target != seqOf(eng.dict, "parix") {
				t.Fatalf("%s decided %+v, want a merge into parix", a, e)
			}
		}

		// abcd merges into abce, one edit away; three updates make abce's
		// γ⋆ (abce, zzzz), past the cap from (abcd, y), and three more
		// bring it back. abcd itself is never touched.
		rows = append([][]string{{"abcd", "y"}}, rep(2, "abce", "y")...)
		rows = append(rows, rep(6, "qqqq", "w")...)
		eng = load(append(rows, rep(3, "mmmmmm", "5")...)...)
		for _, over := range []bool{true, false} {
			b, a := "zzzz", "abce"
			if !over {
				a, b = "qqqq", "w"
			}
			apply(eng, fmt.Sprintf("a decision crosses the merge cap (over: %v)", over), true, put(3, a, b), put(4, a, b), put(5, a, b))
			if e := decision(eng, "abcd"); e.merged == over {
				t.Fatalf("over the cap %v: abcd decided %+v", over, e)
			}
		}

		// Three groups of one tuple: none is normal, and a is promoted.
		// An update makes a normal and empties c (Σc holds), and another
		// brings c back and the promotion with it.
		eng = load([]string{"a", "1"}, []string{"b", "1"}, []string{"c", "2"})
		if eng.blocks[0].res.promotions != 1 {
			t.Fatal("the block of lone tuples promoted no group")
		}
		apply(eng, "out of a promotion", false, put(2, "a", "1"))
		apply(eng, "into a promotion", false, put(2, "c", "2"))
		if eng.blocks[0].res.promotions != 1 {
			t.Fatal("the block of lone tuples promoted no group")
		}
	})
}
