// Package index implements the MLN index of §4: a two-layer hash structure
// with one block per rule in the first layer and, inside each block, one
// group per distinct reason-part value combination in the second layer. The
// atoms stored in groups are pieces of data (γ): the projection of a tuple
// onto the rule's attributes, deduplicated with support counts.
//
// Identity is dictionary-encoded end to end: every cell value is interned to
// a dense uint32 ID (internal/intern) when the index is built, and pieces
// and groups are keyed on hash-consed ID-sequence keys — fixed-width map
// probes instead of joined strings, immune to separator collisions. String
// forms survive as accessors for display, traces, evaluation, and the wire.
package index

import (
	"fmt"
	"sort"

	"mlnclean/internal/dataset"
	"mlnclean/internal/intern"
	"mlnclean/internal/obs"
	"mlnclean/internal/plan"
	"mlnclean/internal/rules"
)

var (
	mBuildSeconds = obs.Default().Histogram("mlnclean_index_build_seconds",
		"Wall time to dictionary-encode the table and build the two-layer MLN index.", obs.DefBuckets)
	mBuilds = obs.Default().Counter("mlnclean_index_builds_total",
		"MLN index constructions.")
)

// Piece is a γ: one distinct combination of a rule's reason+result values,
// together with the IDs of the tuples exhibiting it within its block. Its
// values are stored as interned IDs; Reason/Result/Values decode on demand.
type Piece struct {
	Rule *rules.Rule
	// TupleIDs lists the supporting tuples, ascending.
	TupleIDs []int
	// Weight is the learned MLN weight (set during stage-I cleaning).
	Weight float64

	dict    *intern.Dict
	ids     []uint32 // reason then result value IDs
	nReason int
	kid     uint32 // sequence key of ids (minted at construction)
}

// NewPiece interns the given reason/result values into dict and returns the
// piece. The wire gather path and tests construct pieces this way; Build
// mints them directly from encoded rows.
func NewPiece(r *rules.Rule, dict *intern.Dict, reason, result []string) *Piece {
	ids := make([]uint32, 0, len(reason)+len(result))
	for _, v := range reason {
		ids = append(ids, dict.Intern(v))
	}
	for _, v := range result {
		ids = append(ids, dict.Intern(v))
	}
	return newPieceIDs(r, dict, ids, len(reason))
}

// newPieceIDs claims ownership of ids (reason prefix of length nReason) and
// mints the piece's sequence keys. Key minting mutates the dictionary, so
// pieces are only created in serial phases (Build, the wire gather).
func newPieceIDs(r *rules.Rule, dict *intern.Dict, ids []uint32, nReason int) *Piece {
	return &Piece{
		Rule:    r,
		dict:    dict,
		ids:     ids,
		nReason: nReason,
		kid:     dict.Extend(dict.Seq(ids[:nReason]), ids[nReason:]),
	}
}

// Dict returns the dictionary the piece's IDs live in.
func (p *Piece) Dict() *intern.Dict { return p.dict }

// ValueIDs returns the piece's interned value IDs, reason first. Callers
// must not mutate the slice.
func (p *Piece) ValueIDs() []uint32 { return p.ids }

// Reason returns the decoded reason values.
func (p *Piece) Reason() []string { return p.decode(p.ids[:p.nReason]) }

// Result returns the decoded result values.
func (p *Piece) Result() []string { return p.decode(p.ids[p.nReason:]) }

// Values returns reason followed by result values, decoded.
func (p *Piece) Values() []string { return p.decode(p.ids) }

func (p *Piece) decode(ids []uint32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = p.dict.Value(id)
	}
	return out
}

// Count returns the number of supporting tuples, i.e. c(γ) of Eq. 4.
func (p *Piece) Count() int { return len(p.TupleIDs) }

// KeyID is the piece's fixed-width identity: the hash-consed key of its
// full value-ID sequence. Two pieces of the same dictionary are
// value-identical iff their KeyIDs are equal.
func (p *Piece) KeyID() uint32 { return p.kid }

// Key renders the piece's identity as a joined display string (traces, wire
// summaries, tie-breaking). Not collision-free — see dataset.JoinKey.
func (p *Piece) Key() string { return dataset.JoinKey(p.Values()) }

// GroupKey renders the native group key as a display string.
func (p *Piece) GroupKey() string { return dataset.JoinKey(p.Reason()) }

// String renders the piece in the paper's {Attr: value, …} style.
func (p *Piece) String() string {
	s := "{"
	attrs := p.Rule.Attrs()
	vals := p.Values()
	for i := range vals {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %s", attrs[i], vals[i])
	}
	return s + "}"
}

// Group is the second index layer: the pieces sharing one reason-part key.
// After AGP merging a group may also hold pieces whose native key differs.
type Group struct {
	// Key is the display form of the reason key (traces, eval, tests);
	// group identity on the hot path is the fixed-width id.
	Key    string
	Pieces []*Piece

	id uint32
}

// KeyID is the group's fixed-width reason-sequence identity.
func (g *Group) KeyID() uint32 { return g.id }

// TupleCount sums the supporting tuples of all pieces.
func (g *Group) TupleCount() int {
	n := 0
	for _, p := range g.Pieces {
		n += len(p.TupleIDs)
	}
	return n
}

// Star returns γ⋆: the piece related to the most tuples (ties broken by
// ascending key for determinism). Nil for an empty group.
func (g *Group) Star() *Piece {
	var best *Piece
	for _, p := range g.Pieces {
		if best == nil || p.Count() > best.Count() ||
			(p.Count() == best.Count() && p.Key() < best.Key()) {
			best = p
		}
	}
	return best
}

// Block is the first index layer: all pieces of one rule, partitioned into
// groups by reason key. Group membership maps are Build-local; post-build
// group operations (AGP merging) touch few groups and resolve by identity.
type Block struct {
	Rule   *rules.Rule
	Groups []*Group
}

// Group returns the group with the given display key, or nil. Display
// convenience (tests, examples); the hot path resolves groups by KeyID.
func (b *Block) Group(key string) *Group {
	for _, g := range b.Groups {
		if g.Key == key {
			return g
		}
	}
	return nil
}

// RemoveGroup deletes the group with the given display key (first match).
func (b *Block) RemoveGroup(key string) {
	if g := b.Group(key); g != nil {
		b.removeGroup(g)
	}
}

// removeGroup deletes the group by identity.
func (b *Block) removeGroup(g *Group) {
	for i, h := range b.Groups {
		if h == g {
			b.Groups = append(b.Groups[:i], b.Groups[i+1:]...)
			return
		}
	}
}

// MergeGroups folds group src into group dst, concatenating piece lists
// (piece identities are compared by their fixed-width keys) and removing
// src from the block.
func (b *Block) MergeGroups(src, dst *Group) {
	for _, p := range src.Pieces {
		merged := false
		for _, q := range dst.Pieces {
			if q.kid == p.kid {
				q.TupleIDs = append(q.TupleIDs, p.TupleIDs...)
				sort.Ints(q.TupleIDs)
				merged = true
				break
			}
		}
		if !merged {
			dst.Pieces = append(dst.Pieces, p)
		}
	}
	b.removeGroup(src)
}

// Pieces returns all pieces of the block in deterministic order (group
// insertion order, then piece order).
func (b *Block) Pieces() []*Piece {
	var out []*Piece
	for _, g := range b.Groups {
		out = append(out, g.Pieces...)
	}
	return out
}

// TupleGroup returns the group currently containing the piece that covers
// tuple id, or nil. O(block) — use Index.Assignments for bulk mapping.
func (b *Block) TupleGroup(id int) *Group {
	for _, g := range b.Groups {
		for _, p := range g.Pieces {
			for _, tid := range p.TupleIDs {
				if tid == id {
					return g
				}
			}
		}
	}
	return nil
}

// Index is the full two-layer MLN index.
type Index struct {
	Blocks []*Block
	table  *dataset.Table
	enc    *dataset.Encoded
	plan   *plan.Plan
}

// Plan returns the evaluation plan the index was built under, or nil when
// the planner was disabled (BuildConfig.FixedOrder).
func (ix *Index) Plan() *plan.Plan { return ix.plan }

// BlockOrder returns the stage-I scheduling order of the blocks: descending
// estimated cost (longest-processing-time-first) when a plan exists, block
// order otherwise.
func (ix *Index) BlockOrder() []int {
	if ix.plan != nil && len(ix.plan.Rules) == len(ix.Blocks) {
		return ix.plan.BlockOrder()
	}
	order := make([]int, len(ix.Blocks))
	for i := range order {
		order[i] = i
	}
	return order
}

// Table returns the dirty table the index was built over.
func (ix *Index) Table() *dataset.Table { return ix.table }

// Dict returns the value dictionary the index is encoded against.
func (ix *Index) Dict() *intern.Dict { return ix.enc.Dict }

// Encoded returns the dictionary-encoded rows of the indexed table,
// row-aligned with Table().Tuples.
func (ix *Index) Encoded() *dataset.Encoded { return ix.enc }

// rulePlan precompiles one rule against the schema and dictionary: attribute
// positions and (for CFDs) the interned constants of its reason patterns.
type rulePlan struct {
	reasonPos []int
	resultPos []int
	cfd       bool
	hasConst  bool
	constPos  []int
	constIDs  []uint32
}

func planRule(r *rules.Rule, schema *dataset.Schema, dict *intern.Dict) rulePlan {
	pl := rulePlan{cfd: r.Kind == rules.CFD}
	for _, p := range r.Reason {
		pos := schema.MustIndex(p.Attr)
		pl.reasonPos = append(pl.reasonPos, pos)
		if pl.cfd && p.Const != "" {
			pl.hasConst = true
			// A constant absent from the dictionary matches no tuple of this
			// table; the pattern is simply omitted from the match list.
			if id, ok := dict.Lookup(p.Const); ok {
				pl.constPos = append(pl.constPos, pos)
				pl.constIDs = append(pl.constIDs, id)
			}
		}
	}
	for _, p := range r.Result {
		pl.resultPos = append(pl.resultPos, schema.MustIndex(p.Attr))
	}
	return pl
}

// appliesTo mirrors rules.Rule.AppliesTo over an encoded row.
func (pl *rulePlan) appliesTo(row []uint32) bool {
	if !pl.cfd || !pl.hasConst {
		return true
	}
	for i, pos := range pl.constPos {
		if row[pos] == pl.constIDs[i] {
			return true
		}
	}
	return false
}

// BuildConfig parameterizes index construction.
type BuildConfig struct {
	// Dict is the dictionary to encode into (nil for a fresh one).
	Dict *intern.Dict
	// FixedOrder disables the selectivity planner: every block is built by
	// the fixed-order row scan and Index.Plan() returns nil. A planned build
	// produces an identical index — selectivity changes evaluation order,
	// never outcome — so this exists for comparison benchmarks and as an
	// escape hatch.
	FixedOrder bool
	// Encoded supplies a pre-encoded companion of the table (streaming
	// ingest encodes during CSV parsing). It must be row-aligned with the
	// table and is adopted as the index's encoding; Dict is ignored in its
	// favor. Nil means the table is encoded here.
	Encoded *dataset.Encoded
}

// Build constructs the MLN index over the table for the rule set: one block
// per rule (O(|B|·|T|), §4), one group per distinct reason key, one piece
// per distinct reason+result combination. The table is dictionary-encoded
// into a fresh dictionary first. Blocks are scanned under the selectivity
// plan derived from the encode-time column statistics (internal/plan).
func Build(tb *dataset.Table, rs []*rules.Rule) (*Index, error) {
	return BuildConfigured(tb, rs, BuildConfig{})
}

// BuildConfigured is the fully parameterized Build: a BlockIterator drained
// to completion. The streaming pipeline pulls the same iterator one block at
// a time instead.
func BuildConfigured(tb *dataset.Table, rs []*rules.Rule, cfg BuildConfig) (*Index, error) {
	it, err := NewBlockIterator(tb, rs, cfg)
	if err != nil {
		return nil, err
	}
	for {
		if _, _, ok := it.Next(); !ok {
			return it.Index(), nil
		}
	}
}

// BuildBlockFor rebuilds one rule's block over the table by the fixed-order
// row scan, without constructing a full Index. The incremental delta engine
// uses it to re-derive only the blocks a mutation dirtied. enc must be
// row-aligned with tb and the block is encoded into enc's dictionary; the
// resulting block is identical to the one a full build (planned or not)
// produces over the same table, per the planner's order-invariance.
func BuildBlockFor(tb *dataset.Table, enc *dataset.Encoded, r *rules.Rule) *Block {
	return buildBlock(tb, enc, enc.Dict, r, nil, nil)
}

// buildBlock constructs one rule's block under its plan choice. Whatever the
// scan shape, the resulting block is identical to the fixed-order scan's:
// group and piece identities are minted from declared-order folds, tuple
// lists stay ascending in scan position, and the pivot-join path restores
// first-sight group order afterwards.
func buildBlock(tb *dataset.Table, enc *dataset.Encoded, d *intern.Dict, r *rules.Rule, choice *plan.RulePlan, post *postings) *Block {
	bb := &blockBuilder{
		b:    &Block{Rule: r},
		tb:   tb,
		enc:  enc,
		d:    d,
		pl:   planRule(r, tb.Schema, d),
		gMap: make(map[uint32]*Group),
		// Pieces are probed on (reason fold, result fold): for the common
		// single-reason/single-result rule shape that is one map access per
		// tuple with zero sequence-node minting; the dictionary-global
		// sequence keys are minted only when a piece is first seen.
		pMap: make(map[[2]uint32]*Piece, len(tb.Tuples)/4+8),
	}
	scan := plan.FullScan
	if choice != nil {
		scan = choice.Scan
	}
	switch scan {
	case plan.PostingUnion:
		// Candidate rows are exactly the rows appliesTo accepts (the union
		// of constant-ID posting lists), ascending, so the filter is skipped.
		for _, ti := range post.union(choice.ConstPos, choice.ConstIDs) {
			bb.add(int(ti), false)
		}
	case plan.PivotJoin:
		// Visit rows one pivot posting list at a time. All rows of a group
		// share the pivot value, so each group lives inside one list; a
		// singleton list is a complete group and skips every map probe.
		// PivotJoin is only planned for constant-free rules, so appliesTo
		// always holds.
		c := post.column(choice.Pivot)
		for _, vid := range c.order {
			if list := c.rows[vid]; len(list) == 1 {
				bb.addSingleton(int(list[0]))
			} else {
				for _, ti := range list {
					bb.add(int(ti), false)
				}
			}
		}
		bb.restoreFirstSightOrder()
	default:
		for ti := range tb.Tuples {
			bb.add(ti, true)
		}
	}
	return bb.b
}

// blockBuilder accumulates one block during a (possibly planned) scan.
type blockBuilder struct {
	b      *Block
	tb     *dataset.Table
	enc    *dataset.Encoded
	d      *intern.Dict
	pl     rulePlan
	gMap   map[uint32]*Group
	pMap   map[[2]uint32]*Piece
	firsts []int // scan position each group was first seen at, aligned with b.Groups
}

// add folds row ti into the block, creating its piece/group on first sight.
func (bb *blockBuilder) add(ti int, checkApplies bool) {
	row := bb.enc.Rows[ti]
	pl, d := &bb.pl, bb.d
	if checkApplies && !pl.appliesTo(row) {
		return
	}
	gk := row[pl.reasonPos[0]]
	for _, pos := range pl.reasonPos[1:] {
		gk = d.Fold(gk, row[pos])
	}
	rk := row[pl.resultPos[0]]
	for _, pos := range pl.resultPos[1:] {
		rk = d.Fold(rk, row[pos])
	}
	p, ok := bb.pMap[[2]uint32{gk, rk}]
	if !ok {
		p = bb.newPiece(row, gk)
		bb.pMap[[2]uint32{gk, rk}] = p
		g, ok := bb.gMap[gk]
		if !ok {
			g = &Group{Key: dataset.JoinKey(p.Reason()), id: gk}
			bb.gMap[gk] = g
			bb.b.Groups = append(bb.b.Groups, g)
			bb.firsts = append(bb.firsts, ti)
		}
		g.Pieces = append(g.Pieces, p)
	}
	p.TupleIDs = append(p.TupleIDs, bb.tb.Tuples[ti].ID)
}

// addSingleton folds a row that is alone in its pivot posting list: its
// group and piece cannot recur, so both are constructed directly without
// touching the probe maps (or minting the result-only fold).
func (bb *blockBuilder) addSingleton(ti int) {
	row := bb.enc.Rows[ti]
	pl, d := &bb.pl, bb.d
	gk := row[pl.reasonPos[0]]
	for _, pos := range pl.reasonPos[1:] {
		gk = d.Fold(gk, row[pos])
	}
	p := bb.newPiece(row, gk)
	p.TupleIDs = []int{bb.tb.Tuples[ti].ID}
	g := &Group{Key: dataset.JoinKey(p.Reason()), id: gk, Pieces: []*Piece{p}}
	bb.b.Groups = append(bb.b.Groups, g)
	bb.firsts = append(bb.firsts, ti)
}

func (bb *blockBuilder) newPiece(row []uint32, gk uint32) *Piece {
	pl := &bb.pl
	nReason := len(pl.reasonPos)
	ids := make([]uint32, 0, nReason+len(pl.resultPos))
	for _, pos := range pl.reasonPos {
		ids = append(ids, row[pos])
	}
	for _, pos := range pl.resultPos {
		ids = append(ids, row[pos])
	}
	return &Piece{Rule: bb.b.Rule, dict: bb.d, ids: ids, nReason: nReason, kid: bb.d.Extend(gk, ids[nReason:])}
}

// restoreFirstSightOrder re-sorts the block's groups into the order a
// fixed-order scan would have created them (ascending first-seen row). Each
// row belongs to exactly one group per rule, so first-seen positions are
// unique and the order is total. Pieces within a group never need fixing:
// a group's rows all live in one pivot list, which is scanned ascending.
func (bb *blockBuilder) restoreFirstSightOrder() {
	order := make([]int, len(bb.b.Groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return bb.firsts[order[a]] < bb.firsts[order[b]] })
	sorted := make([]*Group, len(order))
	for i, j := range order {
		sorted[i] = bb.b.Groups[j]
	}
	bb.b.Groups = sorted
}

// postings lazily materializes per-column posting lists over the encoded
// rows: for each value ID of a column, the ascending row positions holding
// it, plus the IDs in first-sight order. Built once per column per Build
// call and shared by every rule that scans via postings.
type postings struct {
	enc  *dataset.Encoded
	cols []*colPostings
}

type colPostings struct {
	order []uint32 // value IDs in first-sight row order
	rows  map[uint32][]int32
}

func (ps *postings) column(pos int) *colPostings {
	if c := ps.cols[pos]; c != nil {
		return c
	}
	c := &colPostings{rows: make(map[uint32][]int32)}
	for ti, row := range ps.enc.Rows {
		id := row[pos]
		list, ok := c.rows[id]
		if !ok {
			c.order = append(c.order, id)
		}
		c.rows[id] = append(list, int32(ti))
	}
	ps.cols[pos] = c
	return c
}

// union returns the ascending, deduplicated union of the posting lists for
// the given (column, value ID) pairs.
func (ps *postings) union(poss []int, ids []uint32) []int32 {
	var lists [][]int32
	for i, pos := range poss {
		if list := ps.column(pos).rows[ids[i]]; len(list) > 0 {
			lists = append(lists, list)
		}
	}
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]int32, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	dedup := out[:1]
	for _, v := range out[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// Assignments maps every covered tuple ID to its current group, per block.
func (ix *Index) Assignments() []map[int]*Group {
	out := make([]map[int]*Group, len(ix.Blocks))
	for bi, b := range ix.Blocks {
		m := make(map[int]*Group)
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				for _, id := range p.TupleIDs {
					m[id] = g
				}
			}
		}
		out[bi] = m
	}
	return out
}

// PieceSummary is the serializable weight-exchange record of one piece: its
// identity (rule + exact values, plus the joined display key), local support
// count, and locally learned weight. The distributed Eq. 6 weight merge
// reduces over these summaries instead of touching worker index state
// directly, so the exchange can cross a process boundary.
type PieceSummary struct {
	RuleID string
	// Key is the joined display form of Values (kept for logs and older
	// cached vectors); Values is the authoritative identity.
	Key    string
	Values []string
	Count  int
	Weight float64
}

// PieceSummaries extracts one summary per piece in deterministic
// block/group/piece order.
func (ix *Index) PieceSummaries() []PieceSummary {
	var out []PieceSummary
	for _, b := range ix.Blocks {
		out = b.appendSummaries(out)
	}
	return out
}

// PieceSummaries is Index.PieceSummaries for one block: the slice a full
// index would contribute for it, in group/piece order.
func (b *Block) PieceSummaries() []PieceSummary {
	return b.appendSummaries(nil)
}

// appendSummaries appends the block's summaries to out, so the whole-index
// vector is built in one slice instead of being copied together per block.
func (b *Block) appendSummaries(out []PieceSummary) []PieceSummary {
	for _, g := range b.Groups {
		for _, p := range g.Pieces {
			vals := p.Values()
			out = append(out, PieceSummary{
				RuleID: b.Rule.ID,
				Key:    dataset.JoinKey(vals),
				Values: vals,
				Count:  p.Count(),
				Weight: p.Weight,
			})
		}
	}
	return out
}

// CopySummaries returns an independent copy of a summary vector, including
// each summary's Values slice: a vector handed to another goroutine is
// copied so later mutation by one party cannot corrupt the other's view.
func CopySummaries(ws []PieceSummary) []PieceSummary {
	if ws == nil {
		return nil
	}
	out := make([]PieceSummary, len(ws))
	copy(out, ws)
	for i := range out {
		if out[i].Values != nil {
			out[i].Values = append([]string(nil), out[i].Values...)
		}
	}
	return out
}

// IdentityValues returns the summary's identity values, reconstructing them
// from the joined key for vectors produced before Values existed.
func (s *PieceSummary) IdentityValues() []string {
	if s.Values != nil {
		return s.Values
	}
	return dataset.SplitKey(s.Key)
}

// ApplyPieceWeights overwrites the weight of every piece matching a summary's
// (rule, values) identity; pieces without a matching summary keep their local
// weight. Counts are ignored — this is the write-back half of the Eq. 6
// exchange. Matching resolves summary values through the index's dictionary
// (lookup only): a summary naming values this index never saw cannot match
// any piece and is skipped without growing the dictionary.
func (ix *Index) ApplyPieceWeights(ws []PieceSummary) {
	if len(ws) == 0 {
		return
	}
	type identity struct {
		rule string
		kid  uint32
	}
	d := ix.Dict()
	merged := make(map[identity]float64, len(ws))
	var ids []uint32
	for i := range ws {
		s := &ws[i]
		vals := s.IdentityValues()
		ids = ids[:0]
		ok := true
		for _, v := range vals {
			id, found := d.Lookup(v)
			if !found {
				ok = false
				break
			}
			ids = append(ids, id)
		}
		if !ok {
			continue
		}
		kid, found := d.LookupSeq(ids)
		if !found {
			continue
		}
		merged[identity{s.RuleID, kid}] = s.Weight
	}
	if len(merged) == 0 {
		return
	}
	for _, b := range ix.Blocks {
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				if w, ok := merged[identity{b.Rule.ID, p.kid}]; ok {
					p.Weight = w
				}
			}
		}
	}
}

// Stats summarizes index shape.
type Stats struct {
	Blocks int
	Groups int
	Pieces int
}

// Stats computes summary counts.
func (ix *Index) Stats() Stats {
	s := Stats{Blocks: len(ix.Blocks)}
	for _, b := range ix.Blocks {
		s.Groups += len(b.Groups)
		for _, g := range b.Groups {
			s.Pieces += len(g.Pieces)
		}
	}
	return s
}
