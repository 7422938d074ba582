package index

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// refBuildBlockFor is the one-pass builder BuildBlockFor replaced, kept as
// its oracle: every group, piece and tuple list grown by append, in row
// order, with the same dictionary calls in the same order.
func refBuildBlockFor(tb *dataset.Table, enc *dataset.Encoded, r *rules.Rule) *Block {
	b := &Block{Rule: r}
	d := enc.Dict
	pl := planRule(r, tb.Schema, d)
	gMap := make(map[uint32]*Group)
	pMap := make(map[[2]uint32]*Piece)
	for ti, t := range tb.Tuples {
		row := enc.Rows[ti]
		if !pl.appliesTo(row) {
			continue
		}
		gk := row[pl.reasonPos[0]]
		for _, pos := range pl.reasonPos[1:] {
			gk = d.Fold(gk, row[pos])
		}
		rk := row[pl.resultPos[0]]
		for _, pos := range pl.resultPos[1:] {
			rk = d.Fold(rk, row[pos])
		}
		p, ok := pMap[[2]uint32{gk, rk}]
		if !ok {
			nReason := len(pl.reasonPos)
			var ids []uint32
			for _, pos := range pl.reasonPos {
				ids = append(ids, row[pos])
			}
			for _, pos := range pl.resultPos {
				ids = append(ids, row[pos])
			}
			p = &Piece{Rule: r, dict: d, ids: ids, nReason: nReason, kid: d.Extend(gk, ids[nReason:])}
			pMap[[2]uint32{gk, rk}] = p
			g, ok := gMap[gk]
			if !ok {
				g = &Group{dict: d, reason: ids[:nReason], id: gk}
				gMap[gk] = g
				b.Groups = append(b.Groups, g)
			}
			g.Pieces = append(g.Pieces, p)
		}
		p.TupleIDs = append(p.TupleIDs, t.ID)
	}
	return b
}

// dirtyTable generates one of the benchmark's datasets, about rows long,
// with 10 % errors.
func dirtyTable(t testing.TB, name string, rows int) (*dataset.Table, []*rules.Rule) {
	t.Helper()
	var (
		truth *dataset.Table
		rs    []*rules.Rule
		err   error
	)
	switch name {
	case "HAI":
		truth, rs, err = datagen.HAI(datagen.HAIConfig{Providers: rows / 14, Measures: 14, Seed: 7})
	case "CAR":
		truth, rs, err = datagen.CAR(datagen.CARConfig{Rows: rows, Seed: 7})
	case "TPCH":
		truth, rs, err = datagen.TPCH(datagen.TPCHConfig{Rows: rows, Seed: 7})
	}
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.1, ReplacementRatio: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return inj.Dirty, rs
}

// nextNode is the ID the dictionary gives its next sequence node: two
// dictionaries that interned the same values agree on it iff they hold the
// same number of nodes.
func nextNode(d *intern.Dict) uint32 {
	probe := d.Intern("\x00next-node-probe")
	return d.Seq([]uint32{probe, probe, probe})
}

// blockDiff compares a block with the oracle's, field by field.
func blockDiff(got, want *Block) error {
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("rule %s: %d groups, oracle %d", got.Rule.ID, len(got.Groups), len(want.Groups))
	}
	for gi, g := range got.Groups {
		w := want.Groups[gi]
		if !slices.Equal(g.ReasonIDs(), w.ReasonIDs()) || g.KeyID() != w.KeyID() || len(g.Pieces) != len(w.Pieces) {
			return fmt.Errorf("rule %s group %d: reason %v/%d with %d pieces, oracle %v/%d with %d",
				got.Rule.ID, gi, g.ReasonIDs(), g.KeyID(), len(g.Pieces), w.ReasonIDs(), w.KeyID(), len(w.Pieces))
		}
		for pi, p := range g.Pieces {
			q := w.Pieces[pi]
			if p.Key() != q.Key() || p.KeyID() != q.KeyID() || p.nReason != q.nReason ||
				!slices.Equal(p.ValueIDs(), q.ValueIDs()) || !slices.Equal(p.TupleIDs, q.TupleIDs) {
				return fmt.Errorf("rule %s group %d piece %d: %q/%d ids %v tuples %v, oracle %q/%d ids %v tuples %v",
					got.Rule.ID, gi, pi, p.Key(), p.KeyID(), p.ValueIDs(), p.TupleIDs,
					q.Key(), q.KeyID(), q.ValueIDs(), q.TupleIDs)
			}
		}
	}
	return nil
}

// TestBuildBlockMatchesOracle: the two-pass build yields the one-pass
// builder's block exactly — group and piece order, display and sequence
// keys, value IDs, tuple lists — and leaves the dictionary with the same
// nodes, on every benchmark dataset and on CFD-constant, multi-attribute,
// separator-swallowing and never-matching rules.
func TestBuildBlockMatchesOracle(t *testing.T) {
	type fixture struct {
		tb *dataset.Table
		rs []*rules.Rule
	}
	fixtures := map[string]fixture{}
	for _, name := range []string{"HAI", "CAR", "TPCH"} {
		tb, rs := dirtyTable(t, name, 4200)
		fixtures[name] = fixture{tb, rs}
	}
	fixtures["planned"] = fixture{plannedTable(t), append(plannedRules(t), rules.MustParseStrings(
		"CFD: HN=NOBODY, CT -> PN", // a constant no row carries
		"CFD: HN=ELIZA, CT=BOAZ -> PN=2567688400",
		"FD: HN, CT -> ST, PN",
	)...)}
	collide := dataset.NewTable(dataset.MustSchema("A", "B", "C"))
	for _, row := range [][]string{
		{"x" + sep + "y", "z", "c1"}, {"x", "y" + sep + "z", "c2"}, {"", "", ""},
		{"x", "y" + sep + "z", "c1"}, {"", sep, "c"}, {"x" + sep + "y", "z", "c1"},
	} {
		collide.MustAppend(row...)
	}
	fixtures["collide"] = fixture{collide, rules.MustParseStrings("FD: A, B -> C", "FD: C -> A, B")}

	for name, f := range fixtures {
		t.Run(name, func(t *testing.T) {
			got, want := dataset.Encode(f.tb, nil), dataset.Encode(f.tb, nil)
			for _, r := range f.rs {
				if err := r.Validate(f.tb.Schema); err != nil {
					t.Fatal(err)
				}
				b := BuildBlockFor(f.tb, got, r)
				if err := blockDiff(b, refBuildBlockFor(f.tb, want, r)); err != nil {
					t.Fatal(err)
				}
				for _, g := range b.Groups {
					if cap(g.Pieces) != len(g.Pieces) || cap(g.reason) != len(g.reason) {
						t.Fatalf("rule %s group %q: pieces %d/%d, reason %d/%d", r.ID, g.Key(),
							len(g.Pieces), cap(g.Pieces), len(g.reason), cap(g.reason))
					}
					for _, p := range g.Pieces {
						if cap(p.TupleIDs) != len(p.TupleIDs) || cap(p.ids) != len(p.ids) {
							t.Fatalf("rule %s piece %q: a carved slice has spare capacity", r.ID, p.Key())
						}
					}
				}
			}
			if g, w := nextNode(got.Dict), nextNode(want.Dict); g != w {
				t.Errorf("dictionary's next node %d, oracle's %d", g, w)
			}
		})
	}
}

// TestConcurrentBuilds: builders on separate dictionaries share the scratch
// pool, as executor workers do, and each still builds the oracle's blocks,
// whatever size of table the pooled scratch last served.
func TestConcurrentBuilds(t *testing.T) {
	type fixture struct {
		tb  *dataset.Table
		rs  []*rules.Rule
		ref []*Block
	}
	var fixtures []fixture
	for _, name := range []string{"HAI", "CAR"} {
		tb, rs := dirtyTable(t, name, 2000)
		enc := dataset.Encode(tb, nil)
		f := fixture{tb: tb, rs: rs}
		for _, r := range rs {
			f.ref = append(f.ref, refBuildBlockFor(tb, enc, r))
		}
		fixtures = append(fixtures, f)
	}
	const workers = 4
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				f := fixtures[(w+round)%len(fixtures)]
				enc := dataset.Encode(f.tb, nil)
				for i, r := range f.rs {
					if err := blockDiff(BuildBlockFor(f.tb, enc, r), f.ref[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("builder %d: %v", w, err)
		}
	}
}

// TestBuildBlockAllocs: on a warm dictionary and scratch pool, building a
// block allocates a constant number of slabs, however many pieces it holds,
// and collapsing it allocates a fixed number more, whether or not merges
// moved its lists first.
func TestBuildBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	tb, rs := dirtyTable(t, "HAI", 4200)
	enc := dataset.Encode(tb, nil)
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() {
		for _, r := range rs {
			BuildBlockFor(tb, enc, r)
		}
	})
	const perBlock = 12
	t.Logf("%d blocks: %.0f allocations", len(rs), allocs)
	if limit := float64(perBlock * len(rs)); allocs > limit {
		t.Errorf("building %d blocks allocates %.0f times, want at most %.0f", len(rs), allocs, limit)
	}

	const perCollapse = 6
	for _, merge := range []bool{false, true} {
		var copies [runs + 1][]*Block
		var winners [runs + 1][][]*Piece
		for k := range copies {
			for _, r := range rs {
				b := BuildBlockFor(tb, enc, r)
				if merge && len(b.Groups) > 2 {
					b.MergeGroups(b.Groups[2], b.Groups[0])
					b.DropEmpty()
				}
				w := make([]*Piece, len(b.Groups))
				for i, g := range b.Groups {
					w[i] = g.Pieces[len(g.Pieces)-1]
				}
				copies[k] = append(copies[k], b)
				winners[k] = append(winners[k], w)
			}
		}
		k := 0
		allocs := testing.AllocsPerRun(runs, func() {
			for i, b := range copies[k] {
				b.Collapse(winners[k][i])
			}
			k++
		})
		if want := float64(perCollapse * len(rs)); allocs != want {
			t.Errorf("merged %v: collapsing %d blocks allocates %.0f times, want %.0f", merge, len(rs), allocs, want)
		}
	}
}

// groupSnapshot is a deep copy of what a group shows: its reason, and each
// piece's identity and tuple list.
func groupSnapshot(g *Group) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v:", g.ReasonIDs())
	for _, p := range g.Pieces {
		fmt.Fprintf(&sb, " %d%v%v", p.KeyID(), p.ValueIDs(), p.TupleIDs)
	}
	return sb.String()
}

// TestBlockEditsDoNotAlias: groups share their block's slabs, so every edit
// of one group — a merge, an append to a list — must leave every other group
// as it was. Collapse leaves each group its winner alone, holding the
// group's tuples, and shares nothing with the build slabs: writing into them
// afterwards changes nothing in the collapsed block.
func TestBlockEditsDoNotAlias(t *testing.T) {
	tb, rs := dirtyTable(t, "HAI", 4200)
	enc := dataset.Encode(tb, nil)
	var b *Block
	for _, r := range rs {
		if c := BuildBlockFor(tb, enc, r); b == nil || len(c.Groups) > len(b.Groups) {
			b = c
		}
	}
	var contested []*Group
	for _, g := range b.Groups {
		if len(g.Pieces) > 1 {
			contested = append(contested, g)
		}
	}
	if len(contested) < 4 {
		t.Fatalf("fixture has %d contested groups, want 4", len(contested))
	}
	var before map[*Group]string
	snap := func() {
		before = map[*Group]string{}
		for _, g := range b.Groups {
			before[g] = groupSnapshot(g)
		}
	}
	check := func(step string, edited ...*Group) {
		t.Helper()
		for _, g := range b.Groups {
			if slices.Contains(edited, g) {
				continue
			}
			if got := groupSnapshot(g); got != before[g] {
				t.Fatalf("%s changed group %q: %s, was %s", step, g.Key(), got, before[g])
			}
		}
	}
	// Appending to a carved list copies it.
	h := contested[3]
	snap()
	h.Pieces[0].TupleIDs = append(h.Pieces[0].TupleIDs, -1)
	h.Pieces = append(h.Pieces, &Piece{TupleIDs: []int{-2}, ids: slices.Clone(h.Pieces[0].ids)})
	check("append", h)

	snap()
	src, dst := contested[0], contested[1]
	want := append(slices.Clone(dst.Pieces), src.Pieces...)
	b.MergeGroups(src, dst)
	b.DropEmpty()
	if !slices.Equal(dst.Pieces, want) || src.Pieces != nil || slices.Contains(b.Groups, src) {
		t.Fatalf("merge: dst holds %d pieces, want %d; src keeps %d", len(dst.Pieces), len(want), len(src.Pieces))
	}
	check("MergeGroups", dst)

	// One collapse: a merged group, one whose lists were appended to, and
	// groups still in their build layout alike.
	old := slices.Clone(b.Groups)
	winners := make([]*Piece, len(old))
	wantTuples := make([][]int, len(old))
	for i, g := range old {
		winners[i] = g.Pieces[len(g.Pieces)/2]
		wantTuples[i] = collapsed(g)
	}
	b.Collapse(winners)
	if len(b.Groups) != len(old) {
		t.Fatalf("collapse: %d groups, want %d", len(b.Groups), len(old))
	}
	after := make([]string, len(b.Groups))
	for i, g := range b.Groups {
		w := winners[i]
		if !slices.Equal(g.ReasonIDs(), old[i].ReasonIDs()) || g.KeyID() != old[i].KeyID() || len(g.Pieces) != 1 {
			t.Fatalf("collapse: group %d is %v/%d with %d pieces, want %v/%d with 1",
				i, g.ReasonIDs(), g.KeyID(), len(g.Pieces), old[i].ReasonIDs(), old[i].KeyID())
		}
		p := g.Pieces[0]
		if p.KeyID() != w.KeyID() || p.Weight != w.Weight || !slices.Equal(p.ValueIDs(), w.ValueIDs()) ||
			!slices.Equal(p.TupleIDs, wantTuples[i]) {
			t.Fatalf("collapse: group %q keeps %d%v%v, want %d%v%v",
				g.Key(), p.KeyID(), p.ValueIDs(), p.TupleIDs, w.KeyID(), w.ValueIDs(), wantTuples[i])
		}
		if len(old[i].Pieces) > 1 && !slices.IsSorted(p.TupleIDs) {
			t.Fatalf("collapse: contested group %q keeps unsorted tuples %v", g.Key(), p.TupleIDs)
		}
		after[i] = groupSnapshot(g)
	}
	// Scribble over everything the build layout held.
	for _, g := range old {
		for _, p := range g.Pieces {
			for i := range p.TupleIDs {
				p.TupleIDs[i] = -3
			}
			for i := range p.ids {
				p.ids[i] = 0
			}
			p.Weight = -1
		}
		for i := range g.Pieces {
			g.Pieces[i] = nil
		}
		for i := range g.reason {
			g.reason[i] = 0
		}
	}
	for i, g := range b.Groups {
		if got := groupSnapshot(g); got != after[i] {
			t.Fatalf("writing into the build slabs changed collapsed group %d: %s, was %s", i, got, after[i])
		}
	}
}

// collapsed is the tuple list a collapse of g must leave its winner: the
// group's tuples, sorted where it holds several pieces.
func collapsed(g *Group) []int {
	var out []int
	for _, p := range g.Pieces {
		out = append(out, p.TupleIDs...)
	}
	if len(g.Pieces) > 1 {
		slices.Sort(out)
	}
	return out
}

// TestCompareKeysMatchesJoinKey: CompareKeys orders value sequences as
// strings.Compare orders their joins wherever the joins differ, separator
// bytes inside values, empty values, empty sequences and prefixes included.
// It is a total order: it returns 0 only for equal sequences, and two
// distinct sequences that join alike compare value by value.
func TestCompareKeysMatchesJoinKey(t *testing.T) {
	d := intern.NewDict()
	alphabet := []string{"", "a", "b", "ab", "a" + sep, sep + "b", "a" + sep + "b", sep, sep + sep, "\x1e", " ", "é", "aé"}
	seq := func(vals ...string) []uint32 {
		ids := make([]uint32, len(vals))
		for i, v := range vals {
			ids[i] = d.Intern(v)
		}
		return ids
	}
	check := func(a, b []string) {
		t.Helper()
		want := strings.Compare(dataset.JoinKey(a), dataset.JoinKey(b))
		if want == 0 {
			want = slices.Compare(a, b)
		}
		if got := CompareKeys(d, seq(a...), seq(b...)); got != want {
			t.Fatalf("CompareKeys(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
	check(nil, nil)
	check([]string{""}, nil)
	check([]string{"a"}, []string{"a", ""})
	check([]string{"a" + sep + "b"}, []string{"a", "b"})
	check([]string{"", ""}, []string{sep})
	check([]string{"a", "b"}, []string{"a", "bc"})
	check([]string{"a", "b"}, []string{"a" + sep + "c"})
	rng := rand.New(rand.NewSource(1))
	draw := func() []string {
		out := make([]string, rng.Intn(5))
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	collisions := 0
	for range 20000 {
		a, b := draw(), draw()
		check(a, b)
		check(b, a)
		check(a, a)
		if dataset.JoinKey(a) == dataset.JoinKey(b) && !slices.Equal(a, b) {
			collisions++
		}
	}
	if collisions == 0 {
		t.Error("no two distinct draws joined alike: the grid does not exercise the value-by-value order")
	}
}

// BenchmarkBuildBlock builds every block of a dirty table (10 % errors) per
// op: HAI at 300×14 and CAR at the benchmark's 30k rows.
func BenchmarkBuildBlock(b *testing.B) {
	for _, name := range []string{"HAI", "CAR"} {
		b.Run(name, func(b *testing.B) {
			rows := 4200
			if name == "CAR" {
				rows = 30000
			}
			tb, rs := dirtyTable(b, name, rows)
			enc := dataset.Encode(tb, nil)
			pieces := 0
			for _, r := range rs {
				for _, g := range BuildBlockFor(tb, enc, r).Groups {
					pieces += len(g.Pieces)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for _, r := range rs {
					BuildBlockFor(tb, enc, r)
				}
			}
			b.ReportMetric(float64(pieces), "pieces/op")
		})
	}
}

// TestBlockEditorMatchesBuild: a kept block edited row by row is the block
// BuildBlockFor lays out for the edited table, on the rule shapes the serving
// datasets lack: multi-attribute reasons and results, CFDs with one or two
// constants, one constant no row carries until an edit brings it in, and
// values that swallow the display separator. Random updates (another row's
// values, or one of its cells), inserts above the highest and below the
// lowest ID, and deletes; after each, every kept block must equal the build,
// and the copy stage I cleans must equal the kept block and leave it as it
// was when its lists are appended to.
func TestBlockEditorMatchesBuild(t *testing.T) {
	type fixture struct {
		tb *dataset.Table
		rs []*rules.Rule
	}
	car, carRules := dirtyTable(t, "CAR", 300)
	collide := dataset.NewTable(dataset.MustSchema("A", "B", "C"))
	for _, row := range [][]string{
		{"x" + sep + "y", "z", "c1"}, {"x", "y" + sep + "z", "c2"}, {"", "", ""},
		{"x", "y" + sep + "z", "c1"}, {"", sep, "c"}, {"x" + sep + "y", "z", "c1"},
	} {
		collide.MustAppend(row...)
	}
	fixtures := map[string]fixture{
		"CAR": {car, carRules},
		"planned": {plannedTable(t), append(plannedRules(t), rules.MustParseStrings(
			"CFD: HN=NOBODY, CT -> PN",
			"CFD: HN=ELIZA, CT=BOAZ -> PN=2567688400",
			"FD: HN, CT -> ST, PN",
		)...)},
		"collide": {collide, rules.MustParseStrings("FD: A, B -> C", "FD: C -> A, B")},
	}
	for name, f := range fixtures {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(46))
			enc := dataset.Encode(f.tb, nil)
			d := enc.Dict
			eds := make([]*BlockEditor, len(f.rs))
			for ri, r := range f.rs {
				eds[ri] = NewBlockEditor(f.tb, enc, r)
			}
			vals := make(map[int][]string, f.tb.Len())
			for _, tp := range f.tb.Tuples {
				vals[tp.ID] = tp.Values
			}
			// Every value of the table; and every rule constant, at its
			// attribute.
			var pool []string
			for _, tp := range f.tb.Tuples {
				pool = append(pool, tp.Values...)
			}
			type cell struct {
				pos int
				val string
			}
			var consts []cell
			for _, r := range f.rs {
				for _, p := range append(slices.Clone(r.Reason), r.Result...) {
					if p.Const != "" {
						consts = append(consts, cell{f.tb.Schema.MustIndex(p.Attr), p.Const})
					}
				}
			}
			encode := func(v []string) []uint32 {
				if v == nil {
					return nil
				}
				row := make([]uint32, len(v))
				for i, s := range v {
					row[i] = d.Intern(s)
				}
				return row
			}
			live := func() []int {
				ids := make([]int, 0, len(vals))
				for id := range vals {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				return ids
			}
			// Each block's groups by KeyID, as of its editor's last
			// ClearTouched: every group Touched does not list must still
			// hold what it held then, and a group made or emptied since
			// must be listed.
			settled := make([]map[uint32]string, len(eds))
			settle := func() {
				for ri, e := range eds {
					e.ClearTouched()
					settled[ri] = make(map[uint32]string)
					for _, g := range e.Block().Groups {
						settled[ri][g.KeyID()] = groupSnapshot(g)
					}
				}
			}
			settle()
			width := f.tb.Schema.Len()
			for step := 0; step < 200; step++ {
				ids := live()
				id := ids[rng.Intn(len(ids))]
				to := slices.Clone(vals[ids[rng.Intn(len(ids))]])
				switch k := rng.Intn(6); {
				case k == 0 && len(ids) > 2:
					to = nil // delete
				case k == 1:
					id = ids[len(ids)-1] + 1 + rng.Intn(3) // insert above
				case k == 2 && ids[0] > 0:
					id = rng.Intn(ids[0]) // insert below
				case k == 3:
					to = slices.Clone(vals[id])
					to[rng.Intn(width)] = pool[rng.Intn(len(pool))]
				case k == 4 && len(consts) > 0:
					c := consts[rng.Intn(len(consts))]
					to = slices.Clone(vals[id])
					to[c.pos] = c.val
				}
				from := vals[id]
				for _, e := range eds {
					e.Move(id, encode(from), encode(to))
				}
				if to == nil {
					delete(vals, id)
				} else {
					vals[id] = to
				}
				cur := dataset.NewTable(f.tb.Schema)
				for _, id := range live() {
					cur.Tuples = append(cur.Tuples, &dataset.Tuple{ID: id, Values: vals[id]})
				}
				curEnc := dataset.Encode(cur, d)
				for ri, r := range f.rs {
					if err := blockDiff(eds[ri].Block(), BuildBlockFor(cur, curEnc, r)); err != nil {
						t.Fatalf("step %d (tuple %d to %q): %v", step, id, to, err)
					}
					touched := eds[ri].Touched()
					now := make(map[uint32]bool)
					for _, g := range eds[ri].Block().Groups {
						now[g.KeyID()] = true
						if was, ok := settled[ri][g.KeyID()]; (!ok || was != groupSnapshot(g)) && !slices.Contains(touched, g.KeyID()) {
							t.Fatalf("step %d, rule %s: group %q changed or was made, and Touched %v omits it", step, r.ID, g.Key(), touched)
						}
					}
					for k := range settled[ri] {
						if !now[k] && !slices.Contains(touched, k) {
							t.Fatalf("step %d, rule %s: group %d was emptied, and Touched %v omits it", step, r.ID, k, touched)
						}
					}
				}
				if step%3 == 2 {
					settle()
				}
			}
			for _, e := range eds {
				kept := e.Block()
				before := make([]string, len(kept.Groups))
				for gi, g := range kept.Groups {
					before[gi] = groupSnapshot(g)
				}
				c := &Block{Rule: kept.Rule, Groups: CopyGroups(kept.Groups)}
				if err := blockDiff(c, kept); err != nil {
					t.Fatalf("the copy is not the kept block: %v", err)
				}
				for _, g := range c.Groups {
					for _, p := range g.Pieces {
						// As AGP merges: append, then sort.
						p.TupleIDs = append(p.TupleIDs, -1)
						slices.Sort(p.TupleIDs)
						p.Weight = 1
					}
					g.Pieces = append(g.Pieces, g.Pieces[0])
				}
				for gi, g := range kept.Groups {
					if got := groupSnapshot(g); got != before[gi] {
						t.Fatalf("editing the copy changed kept group %d: %s, was %s", gi, got, before[gi])
					}
				}
			}
		})
	}
}
