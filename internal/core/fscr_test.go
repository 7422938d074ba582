package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// fx is a fuser test fixture: a schema and dictionary to build positional
// versions and assignments against.
type fx struct {
	dict   *intern.Dict
	schema *dataset.Schema
}

func newFx(attrs ...string) *fx {
	return &fx{dict: intern.NewDict(), schema: dataset.MustSchema(attrs...)}
}

func (x *fx) piece(r *rules.Rule, reason, result []string, ids []int, w float64) *index.Piece {
	p := index.NewPiece(r, x.dict, reason, result)
	p.TupleIDs = ids
	p.Weight = w
	return p
}

func (x *fx) pos(r *rules.Rule) []int {
	attrs := r.Attrs()
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		pos[i] = x.schema.MustIndex(a)
	}
	return pos
}

func (x *fx) version(bi int, r *rules.Rule, p *index.Piece) version {
	return version{blockIdx: bi, rule: r, pos: x.pos(r), ids: p.ValueIDs(), kid: p.KeyID(), weight: p.Weight}
}

// assign builds a positional assignment from attr → value.
func (x *fx) assign(m map[string]string) assignment {
	a := newAssignment(x.schema.Len())
	for attr, v := range m {
		a[x.schema.MustIndex(attr)] = x.dict.Intern(v)
	}
	return a
}

// get decodes one assignment slot.
func (x *fx) get(a assignment, attr string) string {
	id := a[x.schema.MustIndex(attr)]
	if id == unsetID {
		return ""
	}
	return x.dict.Value(id)
}

// fuser builds a fuser whose versions are already gathered: block i of the
// plan is versions[i]'s block, with cands[i] as its replacement candidates.
// The minimality prior is off (penalty 1) and nothing is observed until the
// test says otherwise.
func (x *fx) fuser(versions []version, cands []*blockCands, maxStates int) *fuser {
	posPerBlock := make([][]int, len(cands))
	for _, v := range versions {
		posPerBlock[v.blockIdx] = v.pos
	}
	pl := newFusionPlan(x.dict, x.schema, posPerBlock, Options{MinimalityPrior: 0.5})
	pl.maxStates = maxStates
	copy(pl.candidates, cands)
	f := newFuser(pl)
	for _, v := range versions {
		v.comp = pl.compOf[v.blockIdx]
		f.versions = append(f.versions, v)
	}
	f.dirtyRow = make([]uint32, x.schema.Len())
	for i := range f.dirtyRow {
		f.dirtyRow[i] = unsetID
	}
	return f
}

// setDirty records the observed tuple for the minimality prior.
func (x *fx) setDirty(f *fuser, m map[string]string) {
	for attr, v := range m {
		f.dirtyRow[x.schema.MustIndex(attr)] = x.dict.Intern(v)
	}
}

// conflictPositions lists the schema positions the last run flagged.
func conflictPositions(f *fuser) []int {
	var pos []int
	for p, hit := range f.conflict {
		if hit {
			pos = append(pos, p)
		}
	}
	return pos
}

// TestFuserFastPath: non-conflicting versions fuse to their union with the
// product of weights, regardless of order.
func TestFuserFastPath(t *testing.T) {
	x := newFx("A", "B", "C", "D")
	r1 := rules.MustParseStrings("FD: A -> B")[0]
	r2 := rules.MustParseStrings("FD: C -> D")[0]
	p1 := x.piece(r1, []string{"a"}, []string{"b"}, []int{0}, 0.5)
	p2 := x.piece(r2, []string{"c"}, []string{"d"}, []int{0}, 0.25)
	versions := []version{x.version(0, r1, p1), x.version(1, r2, p2)}
	f := x.fuser(versions, []*blockCands{{}, {}}, 100)
	score, ok := f.run()
	merged, conflicts := f.best, conflictPositions(f)
	if !ok || len(conflicts) != 0 || f.conflicted {
		t.Errorf("ok = %v, conflicts = %v", ok, conflicts)
	}
	if score != 0.125 {
		t.Errorf("score = %v, want 0.5×0.25", score)
	}
	for attr, want := range map[string]string{"A": "a", "B": "b", "C": "c", "D": "d"} {
		if got := x.get(merged, attr); got != want {
			t.Errorf("merged[%s] = %q, want %q", attr, got, want)
		}
	}
}

// TestFuserConflictResolution reproduces Example 3's structure: two
// versions conflict on a shared attribute; the winning fusion substitutes
// the non-conflicting candidate from the conflicting block.
func TestFuserConflictResolution(t *testing.T) {
	x := newFx("CT", "ST", "HN", "PN")
	rA := rules.MustParseStrings("FD: CT -> ST")[0]
	rB := rules.MustParseStrings("CFD: HN=ELIZA, CT=BOAZ -> PN=999")[0]

	// Block 0 candidates: the DOTHAN piece (the tuple's own) and a BOAZ
	// piece available as replacement.
	pDothan := x.piece(rA, []string{"DOTHAN"}, []string{"AL"}, []int{0, 1}, 0.9)
	pBoaz := x.piece(rA, []string{"BOAZ"}, []string{"AL"}, []int{2, 3}, 0.8)
	b0 := buildBlockCands(&FusionBlock{
		Rule: rA, Attrs: rA.Attrs(),
		Candidates: []*index.Piece{pDothan, pBoaz},
	}, x.pos(rA))
	pEliza := x.piece(rB, []string{"ELIZA", "BOAZ"}, []string{"999"}, []int{2, 3}, 0.95)
	b1 := buildBlockCands(&FusionBlock{
		Rule: rB, Attrs: rB.Attrs(),
		Candidates: []*index.Piece{pEliza},
	}, x.pos(rB))
	versions := []version{x.version(0, rA, pDothan), x.version(1, rB, pEliza)}
	f := x.fuser(versions, []*blockCands{b0, b1}, 100)
	// Dirty tuple: {CT: DOTHAN, ST: AL, HN: ELIZA, PN: 42}.
	x.setDirty(f, map[string]string{"CT": "DOTHAN", "ST": "AL", "HN": "ELIZA", "PN": "42"})
	f.penalty = 0.05 / 0.95
	if _, ok := f.run(); !ok {
		t.Fatal("fusion failed")
	}
	merged, conflicts := f.best, conflictPositions(f)
	if got := x.get(merged, "CT"); got != "BOAZ" {
		t.Errorf("CT = %q, want BOAZ (replacement path)", got)
	}
	if x.get(merged, "PN") != "999" || x.get(merged, "ST") != "AL" {
		t.Errorf("merged = %v", merged)
	}
	found := false
	for _, p := range conflicts {
		if x.schema.Attr(p) == "CT" {
			found = true
		}
	}
	if !found {
		t.Errorf("CT conflict not recorded: %v", conflicts)
	}
}

// TestFuserFailsWithoutReplacement: when a conflict has no compatible
// candidate (and the rule is not a CFD), every order dies and fusion fails.
func TestFuserFailsWithoutReplacement(t *testing.T) {
	x := newFx("A", "B", "C")
	rA := rules.MustParseStrings("FD: A -> B")[0]
	rB := rules.MustParseStrings("FD: C -> B")[0]
	pA := x.piece(rA, []string{"a"}, []string{"b1"}, []int{0}, 0.9)
	pB := x.piece(rB, []string{"c"}, []string{"b2"}, []int{0}, 0.9)
	b0 := buildBlockCands(&FusionBlock{Rule: rA, Attrs: rA.Attrs(), Candidates: []*index.Piece{pA}}, x.pos(rA))
	b1 := buildBlockCands(&FusionBlock{Rule: rB, Attrs: rB.Attrs(), Candidates: []*index.Piece{pB}}, x.pos(rB))
	versions := []version{x.version(0, rA, pA), x.version(1, rB, pB)}
	f := x.fuser(versions, []*blockCands{b0, b1}, 100)
	if score, ok := f.run(); ok || score != 0 {
		t.Errorf("expected failed fusion, got %v (score %v)", f.best, score)
	}
}

// TestFuserCFDVacuousSkip: a CFD version whose pattern the fusion
// contradicts is skipped instead of failing the order.
func TestFuserCFDVacuousSkip(t *testing.T) {
	x := newFx("Model", "Type", "Make", "Doors")
	rFD := rules.MustParseStrings("FD: Model, Type -> Make")[0]
	rCFD := rules.MustParseStrings("CFD: Make=acura, Type -> Doors")[0]
	pFD := x.piece(rFD, []string{"MDX", "SUV"}, []string{"honda"}, []int{0}, 0.9)
	pCFD := x.piece(rCFD, []string{"acura", "SUV"}, []string{"4"}, []int{0}, 0.95)
	b0 := buildBlockCands(&FusionBlock{Rule: rFD, Attrs: rFD.Attrs(), Candidates: []*index.Piece{pFD}}, x.pos(rFD))
	// The CFD block holds only acura pieces.
	b1 := buildBlockCands(&FusionBlock{Rule: rCFD, Attrs: rCFD.Attrs(), Candidates: []*index.Piece{pCFD}}, x.pos(rCFD))
	versions := []version{x.version(0, rFD, pFD), x.version(1, rCFD, pCFD)}
	f := x.fuser(versions, []*blockCands{b0, b1}, 100)
	if _, ok := f.run(); !ok {
		t.Fatal("fusion failed; CFD version should be vacuous-skippable")
	}
	merged := f.best
	if got := x.get(merged, "Make"); got != "honda" {
		t.Errorf("Make = %q, want honda", got)
	}
}

// TestBlockCandsFind: find must honour every pinned attribute, skip the
// excluded candidate, and name the posting list it scanned.
func TestBlockCandsFind(t *testing.T) {
	x := newFx("A", "B")
	r := rules.MustParseStrings("FD: A -> B")[0]
	p1 := x.piece(r, []string{"x"}, []string{"1"}, []int{0}, 0.9)
	p2 := x.piece(r, []string{"x"}, []string{"2"}, []int{1}, 0.8)
	p3 := x.piece(r, []string{"y"}, []string{"3"}, []int{2}, 0.99)
	bc := buildBlockCands(&FusionBlock{Rule: r, Attrs: r.Attrs(), Candidates: []*index.Piece{p1, p2, p3}}, x.pos(r))
	dec := func(c candEntry, i int) string { return x.dict.Value(c.ids[i]) }
	// Pin A=x: the best x-candidate is {x,1}.
	got, ok, on := bc.find(x.assign(map[string]string{"A": "x"}), unsetID)
	if !ok || dec(got, 1) != "1" || on != 0 {
		t.Fatalf("find = %v, %v on attribute %d", got, ok, on)
	}
	// Excluding {x,1} yields {x,2}.
	got, ok, _ = bc.find(x.assign(map[string]string{"A": "x"}), p1.KeyID())
	if !ok || dec(got, 1) != "2" {
		t.Fatalf("find with exclusion = %v, %v", got, ok)
	}
	// Pinning both attrs to an absent combination fails.
	if _, ok, _ := bc.find(x.assign(map[string]string{"A": "x", "B": "3"}), unsetID); ok {
		t.Error("impossible pin should fail")
	}
	// No pinned attrs: global best.
	got, ok, on = bc.find(x.assign(nil), unsetID)
	if !ok || dec(got, 0) != "y" || on != -1 {
		t.Fatalf("unpinned find = %v, %v on attribute %d", got, ok, on)
	}
}

// capFixture builds groups independent components of three versions each,
// all of a component conflicting on its shared attribute Z<g>; every block
// holds only its own piece, so no order can complete.
func capFixture(groups int) (*fx, []version, []*blockCands) {
	var attrs []string
	for g := 0; g < groups; g++ {
		attrs = append(attrs, fmt.Sprintf("A%d", g), fmt.Sprintf("B%d", g), fmt.Sprintf("C%d", g), fmt.Sprintf("Z%d", g))
	}
	x := newFx(attrs...)
	var versions []version
	var cands []*blockCands
	for g := 0; g < groups; g++ {
		for i, a := range []string{"A", "B", "C"} {
			r := rules.MustParseStrings(fmt.Sprintf("FD: %s%d -> Z%d", a, g, g))[0]
			p := x.piece(r, []string{"k"}, []string{string(rune('a' + i))}, []int{0}, 0.9)
			cands = append(cands, buildBlockCands(&FusionBlock{Rule: r, Attrs: r.Attrs(), Candidates: []*index.Piece{p}}, x.pos(r)))
			versions = append(versions, x.version(len(versions), r, p))
		}
	}
	return x, versions, cands
}

// TestFuserStateCap: the permutation search respects its state cap, flags
// the tuple as truncated when it bites, and applies the cap to each
// conflicted component on its own.
func TestFuserStateCap(t *testing.T) {
	x, versions, cands := capFixture(2)
	f := x.fuser(versions, cands, 2) // absurdly small cap
	f.run()
	if f.states > 2 {
		t.Errorf("states = %d exceeded cap", f.states)
	}
	if !f.truncated {
		t.Error("a search that hit the cap must flag the tuple truncated")
	}

	// One component needs `need` states; two of them need that many each,
	// not twice that many between them.
	x1, v1, c1 := capFixture(1)
	f = x1.fuser(v1, c1, 1<<20)
	f.run()
	need := f.states
	if need < 3 || f.truncated {
		t.Fatalf("uncapped single component: states = %d, truncated = %v", need, f.truncated)
	}
	f = x.fuser(versions, cands, need)
	f.run()
	if f.truncated || f.states != need {
		t.Errorf("cap %d per component: truncated = %v, last search entered %d states", need, f.truncated, f.states)
	}
	f = x.fuser(versions, cands, need-1)
	f.run()
	if !f.truncated {
		t.Errorf("cap %d is below one component's %d states but nothing was flagged", need-1, need)
	}
}

// chainBlocks hand-builds n blocks "FD: A<i> -> A<i+1>" covering tuple 0,
// one piece each. With conflict set, block 1 disagrees with block 0 on A1.
func chainBlocks(n int, conflict bool) (*dataset.Table, []*rules.Rule, []*FusionBlock) {
	attrs := make([]string, n+1)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	x := newFx(attrs...)
	tb := dataset.NewTable(x.schema)
	row := make([]string, n+1)
	for i := range row {
		row[i] = "v"
	}
	tb.MustAppend(row...)
	var rs []*rules.Rule
	var blocks []*FusionBlock
	for i := 0; i < n; i++ {
		r := rules.MustParseStrings(fmt.Sprintf("FD: A%d -> A%d", i, i+1))[0]
		reason := "v"
		if conflict && i == 1 {
			reason = "w"
		}
		p := x.piece(r, []string{reason}, []string{"v"}, []int{0}, 0.9)
		rs = append(rs, r)
		blocks = append(blocks, &FusionBlock{
			Rule: r, Attrs: r.Attrs(),
			Pieces:     []*index.Piece{p},
			Candidates: []*index.Piece{p},
		})
	}
	return tb, rs, blocks
}

// TestFusionWidthGuard: a rule set linking more than 64 rules into one
// component is refused with a typed error by every entry point that takes
// rules, instead of wrapping the version mask and reporting every conflicted
// tuple as a fusion failure; FSCR itself degrades visibly.
func TestFusionWidthGuard(t *testing.T) {
	tb, rs, blocks := chainBlocks(70, true)
	var werr *FusionWidthError
	if _, err := Clean(tb, rs, Options{}); !errors.As(err, &werr) || werr.Rules != 70 {
		t.Errorf("Clean over a 70-rule chain: err = %v, want *FusionWidthError{Rules: 70}", err)
	}
	if _, err := NewDeltaCleaner(tb.Schema, rs, Options{}); !errors.As(err, &werr) {
		t.Errorf("NewDeltaCleaner over a 70-rule chain: err = %v, want *FusionWidthError", err)
	}
	if err := CheckFusionWidth(tb.Schema, rs[:maxComponentVersions]); err != nil {
		t.Errorf("a %d-rule chain must be accepted: %v", maxComponentVersions, err)
	}

	// Direct callers: a conflicted over-wide tuple is a counted failure and
	// truncation and keeps its values.
	var st Stats
	out := RunFSCREncoded(tb, nil, blocks, Options{}, &st)
	if st.FusionFailures != 1 || st.FusionTruncated != 1 || len(out.Diff(tb)) != 0 {
		t.Errorf("over-wide conflicted tuple: %+v, diff %v", st, out.Diff(tb))
	}
	// The widest searchable chain still completes a conflicted fusion...
	tb64, _, blocks64 := chainBlocks(maxComponentVersions, true)
	st = Stats{}
	RunFSCREncoded(tb64, nil, blocks64, Options{}, &st)
	if st.FusionTruncated != 1 {
		t.Errorf("64-version conflicted chain should exhaust the state cap: %+v", st)
	}
	// ...and agreeing versions never need the mask, however many there are.
	tbOK, _, blocksOK := chainBlocks(70, false)
	st = Stats{}
	RunFSCREncoded(tbOK, nil, blocksOK, Options{}, &st)
	if st.FusionFailures != 0 || st.FusionTruncated != 0 {
		t.Errorf("70 agreeing versions: %+v", st)
	}
}

// TestFusionCapEndToEnd: a fusion component as wide as the search takes —
// 64 rules "FD: A<i> -> A<i+1>" chained into one — with tuples whose
// versions disagree on A1, cleaned end to end. The search stops at its
// 4,096-state cap, on Clean and on a DeltaCleaner whose Apply re-fuses the
// capped tuples (conflicted tuples re-fuse on every Apply); the Apply's
// version equals Clean of the same table, and neither takes long.
func TestFusionCapEndToEnd(t *testing.T) {
	n := maxComponentVersions
	attrs := make([]string, n+1)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	schema := dataset.MustSchema(attrs...)
	var rs []*rules.Rule
	for i := 0; i < n; i++ {
		rs = append(rs, rules.MustParseStrings(fmt.Sprintf("FD: A%d -> A%d", i, i+1))[0])
	}
	row := func(a1 string) []string {
		vals := make([]string, n+1)
		for i := range vals {
			vals[i] = "v"
		}
		vals[1] = a1
		return vals
	}
	// Block 0 holds (v, v) for most tuples and (v, w) for a few: RSC keeps
	// (v, v), so their version there says A1 = v. Block 1 holds them in a
	// normal group of their own, whose version says A1 = w.
	tb := dataset.NewTable(schema)
	for i := 0; i < 20; i++ {
		tb.MustAppend(row("v")...)
	}
	tb.MustAppend(row("w")...)
	tb.MustAppend(row("w")...)
	opts := Options{Tau: 1}

	start := time.Now()
	want, err := Clean(tb, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.FusionTruncated == 0 {
		t.Fatalf("Clean: no fusion hit the state cap: %+v", want.Stats)
	}
	eng, err := NewDeltaCleaner(schema, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(tb); err != nil {
		t.Fatal(err)
	}
	// A third (v, w) tuple: the two capped tuples are conflicted, and re-fuse.
	grown := tb.Clone()
	grown.MustAppend(row("w")...)
	id := grown.Tuples[grown.Len()-1].ID
	got, ds, err := eng.Apply([]Mutation{{Op: DeltaPut, Row: id, Values: row("w")}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.RefusedTuples < 3 {
		t.Errorf("the Apply re-fused %d tuples, want the 3 conflicted ones at least", ds.RefusedTuples)
	}
	if got.Stats.FusionTruncated < 3 {
		t.Errorf("Apply: %d fusions hit the state cap, want 3: %+v", got.Stats.FusionTruncated, got.Stats)
	}
	assertParity(t, "capped Apply", got, blocksOf(eng, nil), grown, rs, opts)
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("two capped cleans took %v, want under 5 s", wall)
	}
}

// TestFusionComponents: blocks are grouped by shared schema positions,
// transitively, and numbered by first block.
func TestFusionComponents(t *testing.T) {
	compOf, compAttrs := fusionComponents([][]int{{0, 1}, {4, 5}, {1, 2}, {6}, {5, 7}, {2, 0}}, 9)
	if want := []int{0, 1, 0, 2, 1, 0}; !reflect.DeepEqual(compOf, want) {
		t.Errorf("compOf = %v, want %v", compOf, want)
	}
	if want := [][]int{{0, 1, 2}, {4, 5, 7}, {6}}; !reflect.DeepEqual(compAttrs, want) {
		t.Errorf("compAttrs = %v, want %v", compAttrs, want)
	}
}

// TestTraceFSCRInTupleOrder: however many goroutines fuse, Trace.FSCR lists
// tuples in table order.
func TestTraceFSCRInTupleOrder(t *testing.T) {
	dirty, rs := carDirty(t, 400, 3)
	tr := &Trace{}
	if _, err := Clean(dirty, rs, Options{Trace: tr, Parallelism: 7}); err != nil {
		t.Fatal(err)
	}
	if len(tr.FSCR) == 0 {
		t.Fatal("no fusion outcomes traced")
	}
	if !sort.SliceIsSorted(tr.FSCR, func(i, j int) bool { return tr.FSCR[i].TupleID < tr.FSCR[j].TupleID }) {
		t.Error("Trace.FSCR is not in tuple order")
	}
}

// ---------------------------------------------------------------- reference
//
// refFuser is the search this package shipped before the in-place,
// component-factorised one: one monolithic permutation search per tuple that
// clones the assignment at every step and memoises on a string key. It is
// kept here, and only here, as the oracle of TestFuserMatchesReference.

type refFuser struct {
	versions   []version
	candidates []*blockCands
	penalty    float64
	dirtyRow   []uint32
	domainSize []int
	dict       *intern.Dict
	schema     *dataset.Schema

	visited   map[string]float64
	bestF     float64
	bestRaw   float64
	best      assignment
	conflicts map[int]struct{}
	attrOrder []int
}

func cloneAssignment(a assignment) assignment { return append(assignment(nil), a...) }

func absorbInto(a assignment, pos []int, ids []uint32) {
	for i, p := range pos {
		a[p] = ids[i]
	}
}

func (f *refFuser) penalized(merged assignment, raw float64) float64 {
	if f.penalty >= 1 {
		return raw
	}
	out := raw
	for _, pos := range f.attrOrder {
		id := merged[pos]
		if id == unsetID || id == f.dirtyRow[pos] {
			continue
		}
		out *= f.penalty
		if n := f.domainSize[pos]; n > 2 {
			out /= float64(n - 1)
		}
	}
	return out
}

// run returns the best assignment (nil: every order failed), its raw score
// and the sorted conflict positions.
func (f *refFuser) run() (assignment, float64, []int) {
	posSet := make(map[int]struct{})
	for _, v := range f.versions {
		for _, p := range v.pos {
			posSet[p] = struct{}{}
		}
	}
	for p := range posSet {
		f.attrOrder = append(f.attrOrder, p)
	}
	sort.Ints(f.attrOrder)
	f.visited = make(map[string]float64)
	f.conflicts = make(map[int]struct{})

	anyConflict := false
	for i := range f.versions {
		for j := i + 1; j < len(f.versions); j++ {
			vi, vj := f.versions[i], f.versions[j]
			for ai, pa := range vi.pos {
				for aj, pb := range vj.pos {
					if pa == pb && vi.ids[ai] != vj.ids[aj] {
						anyConflict = true
					}
				}
			}
		}
	}
	width := f.schema.Len()
	if !anyConflict {
		merged := newAssignment(width)
		score := 1.0
		for _, v := range f.versions {
			absorbInto(merged, v.pos, v.ids)
			score *= v.weight
		}
		return merged, score, nil
	}
	for i, v := range f.versions {
		merged := newAssignment(width)
		absorbInto(merged, v.pos, v.ids)
		f.extend(merged, v.weight, 1<<uint(i))
	}
	var pos []int
	for p := range f.conflicts {
		pos = append(pos, p)
	}
	sort.Ints(pos)
	if f.best == nil {
		return nil, 0, pos
	}
	return f.best, f.bestRaw, pos
}

func (f *refFuser) extend(merged assignment, fscore float64, mask int) {
	if mask == (1<<uint(len(f.versions)))-1 {
		if p := f.penalized(merged, fscore); p > f.bestF {
			f.bestF, f.bestRaw, f.best = p, fscore, cloneAssignment(merged)
		}
		return
	}
	key := fmt.Sprint(mask, merged)
	if prev, ok := f.visited[key]; ok && fscore <= prev {
		return
	}
	f.visited[key] = fscore
	for j, vj := range f.versions {
		if mask&(1<<uint(j)) != 0 {
			continue
		}
		ids, weight := vj.ids, vj.weight
		conflict := false
		for i, p := range vj.pos {
			if v := merged[p]; v != unsetID && v != ids[i] {
				f.conflicts[p] = struct{}{}
				conflict = true
			}
		}
		if conflict {
			repl, ok, _ := f.candidates[vj.blockIdx].find(merged, vj.kid)
			if !ok {
				if f.cfdVacuous(vj, merged) {
					f.extend(merged, fscore, mask|1<<uint(j))
				}
				continue
			}
			ids, weight = repl.ids, repl.weight
		}
		next := cloneAssignment(merged)
		absorbInto(next, vj.pos, ids)
		f.extend(next, fscore*weight, mask|1<<uint(j))
	}
}

func (f *refFuser) cfdVacuous(v version, merged assignment) bool {
	if v.rule == nil || v.rule.Kind != rules.CFD {
		return false
	}
	anyConst := false
	for _, pat := range v.rule.Reason {
		if pat.Const == "" {
			continue
		}
		anyConst = true
		got := merged[f.schema.MustIndex(pat.Attr)]
		if got == unsetID {
			return false
		}
		if cid, ok := f.dict.Lookup(pat.Const); ok && got == cid {
			return false
		}
	}
	return anyConst
}

// randomFusion draws one fusion instance: 1–3 attribute-disjoint components
// sharing 2–7 blocks, each block an FD or a constant CFD over its
// component's attributes with 1–4 candidate pieces over two-value domains
// (so versions conflict often, single-candidate blocks have no replacement,
// and CFD blocks go vacuous), random weights, a random observed tuple.
func randomFusion(rng *rand.Rand) (*fx, []version, []*blockCands, []uint32, []int) {
	const perComp = 4
	nComp := 1 + rng.Intn(3)
	var attrs []string
	for c := 0; c < nComp; c++ {
		for a := 0; a < perComp; a++ {
			attrs = append(attrs, fmt.Sprintf("C%dA%d", c, a))
		}
	}
	x := newFx(attrs...)
	val := func(attr string) string { return attr + string(rune('x'+rng.Intn(2))) }
	nBlocks := max(2, nComp) + rng.Intn(6-max(2, nComp)+2) // max(2,nComp)..7
	var versions []version
	var cands []*blockCands
	for bi := 0; bi < nBlocks; bi++ {
		c := bi % nComp
		perm := rng.Perm(perComp)
		nReason := 1 + rng.Intn(2)
		reasonAttrs := make([]string, nReason)
		for i := range reasonAttrs {
			reasonAttrs[i] = attrs[c*perComp+perm[i]]
		}
		resultAttr := attrs[c*perComp+perm[nReason]]
		spec := "FD: "
		constVal := ""
		if rng.Intn(3) == 0 {
			constVal = val(reasonAttrs[0])
			spec = "CFD: "
		}
		for i, a := range reasonAttrs {
			if i > 0 {
				spec += ", "
			}
			spec += a
			if i == 0 && constVal != "" {
				spec += "=" + constVal
			}
		}
		spec += " -> " + resultAttr
		r := rules.MustParseStrings(spec)[0]
		var pieces []*index.Piece
		seen := make(map[uint32]bool)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			reason := make([]string, nReason)
			for i, a := range reasonAttrs {
				reason[i] = val(a)
			}
			if constVal != "" {
				reason[0] = constVal // a CFD block only holds pieces inside its pattern
			}
			p := x.piece(r, reason, []string{val(resultAttr)}, []int{0}, 0.05+0.9*rng.Float64())
			if !seen[p.KeyID()] {
				seen[p.KeyID()] = true
				pieces = append(pieces, p)
			}
		}
		cands = append(cands, buildBlockCands(&FusionBlock{Rule: r, Attrs: r.Attrs(), Candidates: pieces}, x.pos(r)))
		versions = append(versions, x.version(bi, r, pieces[rng.Intn(len(pieces))]))
	}
	dirtyRow := make([]uint32, len(attrs))
	domain := make([]int, len(attrs))
	for i, a := range attrs {
		dirtyRow[i] = x.dict.Intern(val(a))
		domain[i] = 2 + rng.Intn(4)
	}
	return x, versions, cands, dirtyRow, domain
}

// TestFuserMatchesReference pits the in-place, component-factorised search
// against the monolithic cloning search on seeded random instances: same
// assignment, same conflict set, same failure flag, and the same score up to
// the order the component products are taken in.
func TestFuserMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	var searched, failed, vacuous, multi int
	for n := 0; n < 1500; n++ {
		x, versions, cands, dirtyRow, domain := randomFusion(rng)
		penalty := 0.05 / 0.95
		if n%5 == 0 {
			penalty = 1 // minimality prior off
		}

		ref := &refFuser{
			versions: versions, candidates: cands, penalty: penalty,
			dirtyRow: dirtyRow, domainSize: domain, dict: x.dict, schema: x.schema,
		}
		wantBest, wantRaw, wantConf := ref.run()

		f := x.fuser(versions, cands, 1<<30)
		f.penalty, f.dirtyRow = penalty, dirtyRow
		copy(f.domainSize, domain)
		raw, ok := f.run()

		label := fmt.Sprintf("instance %d (%d versions, %d components)", n, len(versions), len(f.compAttrs))
		if ok != (wantBest != nil) {
			t.Fatalf("%s: ok = %v, reference best = %v", label, ok, wantBest)
		}
		if ok && !reflect.DeepEqual(f.best, wantBest) {
			t.Fatalf("%s: best = %v, reference %v", label, f.best, wantBest)
		}
		if got := conflictPositions(f); !reflect.DeepEqual(got, wantConf) {
			t.Fatalf("%s: conflicts = %v, reference %v", label, got, wantConf)
		}
		if math.Abs(raw-wantRaw) > 1e-12*math.Abs(wantRaw) {
			t.Fatalf("%s: raw = %v, reference %v", label, raw, wantRaw)
		}
		for p, id := range f.merged {
			if id != unsetID {
				t.Fatalf("%s: working assignment left pinned at %d", label, p)
			}
		}
		if f.conflicted {
			searched++
		}
		if !ok {
			failed++
		}
		if len(f.compAttrs) > 1 {
			multi++
		}
		for _, v := range versions {
			if v.rule.Kind == rules.CFD && ok && f.conflicted {
				if got := f.best[x.schema.MustIndex(v.rule.Reason[0].Attr)]; got != unsetID && x.dict.Value(got) != v.rule.Reason[0].Const {
					vacuous++
					break
				}
			}
		}
	}
	// The generator must actually reach the cases the comparison is for.
	if searched < 500 || failed < 20 || vacuous < 20 || multi < 500 {
		t.Errorf("coverage too thin: %d searched, %d failed, %d CFD-vacuous wins, %d multi-component", searched, failed, vacuous, multi)
	}
}

// haiFusion cleans a seeded HAI table (300 providers × 14 measures, 15 %
// errors, τ = 10) through stage I and returns the fusion plan over it.
func haiFusion(tb testing.TB) (*dataset.Table, *dataset.Encoded, *fusionPlan) {
	tb.Helper()
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 300, Measures: 14, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.15, ReplacementRatio: 0.5, Seed: 8})
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{Tau: 10}.withDefaults()
	ix := stagedIndex(tb, inj.Dirty, rs, opts)
	enc := ix.Encoded()
	return inj.Dirty.Clone(), enc, planFusion(ix.Dict(), inj.Dirty, enc.Rows, FusionBlocksFromIndex(ix), opts)
}

// TestFuseTupleAllocFree: a warm fuser fuses the costliest conflicted
// 7-version HAI tuple without allocating, however many states it explores.
func TestFuseTupleAllocFree(t *testing.T) {
	dirty, enc, pl := haiFusion(t)
	f := newFuser(pl)
	worst, worstStates := -1, 0
	for i, tu := range dirty.Tuples {
		res := f.fuse(tu, i, enc.Rows[i], nil)
		if res.conflicted != 0 && len(f.versions) == 7 && f.states > worstStates {
			worst, worstStates = i, f.states
		}
	}
	if worst < 0 || worstStates < 50 {
		t.Fatalf("no expensive conflicted 7-version tuple found (best: %d states)", worstStates)
	}
	allocs := testing.AllocsPerRun(50, func() {
		f.fuse(dirty.Tuples[worst], worst, enc.Rows[worst], nil)
	})
	if allocs > 0 {
		t.Errorf("warm fuse of a %d-state tuple allocates %v times, want 0", worstStates, allocs)
	}
}

// BenchmarkFSCRFuse fuses every tuple of the HAI 300×14 table (15 % errors)
// on one warm fuser: ns/op and allocs/op are per pass over the table.
func BenchmarkFSCRFuse(b *testing.B) {
	dirty, enc, pl := haiFusion(b)
	f := newFuser(pl)
	states, searches := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		states, searches = 0, 0
		for i, tu := range dirty.Tuples {
			// HAI has one multi-rule component, so a conflicted tuple ran
			// exactly one search and f.states is the tuple's state count.
			if res := f.fuse(tu, i, enc.Rows[i], nil); res.conflicted != 0 {
				states += f.states
				searches++
			}
		}
	}
	b.ReportMetric(float64(states)/float64(len(dirty.Tuples)), "states/tuple")
	b.ReportMetric(float64(searches)/float64(len(dirty.Tuples)), "searched/tuple")
}

// BenchmarkStageIITail runs the whole of stage II — FSCR, then duplicate
// elimination over its ID rows — on the benchmark's solo-car shape (CAR 30k
// rows, 5 % errors, τ = 2): ns/op and allocs/op are per pass over the table.
func BenchmarkStageIITail(b *testing.B) {
	dirty, enc, blocks, opts := stageIIInputs(b, 30000, 1)
	opts.Parallelism = 0 // one fuser per CPU, as a clean runs it
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		st = Stats{}
		StageII(dirty, enc, blocks, opts, &st)
	}
	b.ReportMetric(float64(st.FSCRCellChanges), "cells/op")
	b.ReportMetric(float64(st.DuplicatesRemoved), "dups/op")
}

// TestRepairedSharesUnchangedTuples: stage II copies on write. On a traced
// HAI clean every tuple fusion left alone is the input's own *Tuple, every
// tuple it changed is a fresh one, and the input is not edited.
func TestRepairedSharesUnchangedTuples(t *testing.T) {
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 300, Measures: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.15, ReplacementRatio: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	dirty := inj.Dirty
	snapshot := dirty.Clone()
	trace := &Trace{}
	res, err := Clean(dirty, rs, Options{Tau: 10, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if d := dirty.Diff(snapshot); len(d) != 0 {
		t.Fatalf("the clean edited %d input cells, first %+v", len(d), d[0])
	}
	shared, fresh := 0, 0
	for i, r := range res.Repaired.Tuples {
		in := dirty.Tuples[i]
		switch unchanged := reflect.DeepEqual(r.Values, in.Values); {
		case unchanged && r != in:
			t.Fatalf("tuple %d kept its values but is a copy", in.ID)
		case !unchanged && r == in:
			t.Fatalf("tuple %d changed but is the input's", in.ID)
		case unchanged:
			shared++
		default:
			fresh++
		}
	}
	traced := 0
	for _, o := range trace.FSCR {
		if len(o.Changed) > 0 {
			traced++
		}
	}
	t.Logf("%d tuples: %d shared with the input, %d fresh", dirty.Len(), shared, fresh)
	if shared == 0 || fresh == 0 {
		t.Fatalf("%d shared, %d fresh: the table does not exercise both paths", shared, fresh)
	}
	if traced != fresh {
		t.Errorf("the trace records %d changed tuples, the repaired table holds %d fresh ones", traced, fresh)
	}
}

// TestCleanNonPositionalIDs: tuple IDs are names, not positions. A table
// whose IDs are sparse, or sparse and permuted, is repaired exactly as the
// same rows under positional IDs.
func TestCleanNonPositionalIDs(t *testing.T) {
	dirty, rs := carDirty(t, 400, 11)
	want, err := Clean(dirty, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.FSCRCellChanges == 0 || len(want.Duplicates) == 0 {
		t.Fatalf("%d cells changed, %d duplicate sets: the table does not exercise stage II",
			want.Stats.FSCRCellChanges, len(want.Duplicates))
	}
	perm := rand.New(rand.NewSource(11)).Perm(dirty.Len())
	for _, tc := range []struct {
		name string
		id   func(pos int) int
	}{
		{"sparse", func(pos int) int { return 1000 + 7*pos }},
		{"sparse and permuted", func(pos int) int { return 1000 + 7*perm[pos] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			renamed := dataset.NewTable(dirty.Schema)
			newID := make(map[int]int, dirty.Len())
			for i, tu := range dirty.Tuples {
				newID[tu.ID] = tc.id(i)
				renamed.Tuples = append(renamed.Tuples, &dataset.Tuple{ID: tc.id(i), Values: tu.Values})
			}
			got, err := Clean(renamed, rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want.Repaired.Tuples {
				g := got.Repaired.Tuples[i]
				if g.ID != newID[w.ID] || !reflect.DeepEqual(g.Values, w.Values) {
					t.Fatalf("row %d: got ID=%d %v, want ID=%d %v", i, g.ID, g.Values, newID[w.ID], w.Values)
				}
			}
			if got.Clean.Len() != want.Clean.Len() || len(got.Duplicates) != len(want.Duplicates) {
				t.Fatalf("%d clean rows and %d duplicate sets, want %d and %d",
					got.Clean.Len(), len(got.Duplicates), want.Clean.Len(), len(want.Duplicates))
			}
			for si, set := range want.Duplicates {
				for mi, id := range set {
					if mi >= len(got.Duplicates[si]) || got.Duplicates[si][mi] != newID[id] {
						t.Fatalf("duplicate sets: got %v, want %v renamed", got.Duplicates, want.Duplicates)
					}
				}
			}
			if got.Stats != want.Stats {
				t.Fatalf("stats: got %+v, want %+v", got.Stats, want.Stats)
			}
		})
	}
}

// repeatedIDTable is five rows under FD A -> B whose last two share tuple
// ID 3: x,1 three times, then x,2 and y,3. With unique IDs and τ = 0, RSC
// repairs x,2 to x,1; under the repeated ID the x,2 tuple's version would be
// lost to the y,3 tuple's.
func repeatedIDTable(t *testing.T) (*dataset.Table, []*rules.Rule) {
	t.Helper()
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	for _, row := range [][]string{{"x", "1"}, {"x", "1"}, {"x", "1"}, {"x", "2"}, {"y", "3"}} {
		tb.MustAppend(row...)
	}
	return tb, rules.MustParseStrings("FD: A -> B")
}

// TestCleanRejectsRepeatedIDs: Clean and CleanEncoded refuse a table that
// repeats a tuple ID, naming the ID, as a DeltaCleaner's Load does; with the
// IDs made unique the same rows clean.
func TestCleanRejectsRepeatedIDs(t *testing.T) {
	tb, rs := repeatedIDTable(t)
	opts := Options{Tau: 0, TauSet: true}
	res, err := Clean(tb, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Repaired.Tuples[3].Values[1]; got != "1" {
		t.Fatalf("unique IDs: x,2 repaired to x,%s, want x,1", got)
	}
	tb.Tuples[4].ID = 3
	const want = "core: duplicate tuple id 3"
	if _, err := Clean(tb, rs, opts); err == nil || err.Error() != want {
		t.Errorf("Clean: error %v, want %q", err, want)
	}
	enc := dataset.Encode(tb, nil)
	if _, err := CleanEncoded(context.Background(), tb, enc, rs, opts); err == nil || err.Error() != want {
		t.Errorf("CleanEncoded: error %v, want %q", err, want)
	}
}
