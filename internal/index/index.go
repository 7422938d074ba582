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
// forms survive as accessors for display, traces, evaluation, and the piece
// summaries the delta parity tests compare.
package index

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"mlnclean/internal/dataset"
	"mlnclean/internal/intern"
	"mlnclean/internal/obs"
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
// piece. Tests construct pieces this way; Build mints them directly from
// encoded rows.
func NewPiece(r *rules.Rule, dict *intern.Dict, reason, result []string) *Piece {
	ids := make([]uint32, 0, len(reason)+len(result))
	for _, v := range reason {
		ids = append(ids, dict.Intern(v))
	}
	for _, v := range result {
		ids = append(ids, dict.Intern(v))
	}
	return NewPieceIDs(r, dict, ids, len(reason))
}

// NewPieceIDs claims ownership of ids — value IDs of dict, the reason prefix
// of length nReason — and mints the piece's sequence keys. Key minting
// mutates the dictionary, so pieces are only created in serial phases
// (Build, the distributed gather).
func NewPieceIDs(r *rules.Rule, dict *intern.Dict, ids []uint32, nReason int) *Piece {
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

// Key renders the piece's identity as a joined display string (traces,
// evaluation). Not collision-free — see dataset.JoinKey. Tie-breaks order
// pieces with CompareKeys, which decodes nothing.
func (p *Piece) Key() string { return dataset.JoinKey(p.Values()) }

// keySep is dataset.JoinKey's separator.
var keySep = dataset.JoinKey([]string{"", ""})

// CompareKeys is the total order on value-ID sequences of d that every
// tie-break uses: groups, γ⋆ and RSC candidates. Where the joined display
// keys differ it returns strings.Compare(dataset.JoinKey(decoded a),
// dataset.JoinKey(decoded b)), walking both joins segment by segment through
// the dictionary without building either, so ties order as they always
// have. Two distinct sequences that join alike (a value holds the
// separator) are then compared value by value, so only equal sequences
// compare 0.
func CompareKeys(d *intern.Dict, a, b []uint32) int {
	ca, cb := keyCursor{d: d, ids: a}, keyCursor{d: d, ids: b}
	for {
		ca.fill()
		cb.fill()
		if len(ca.seg) == 0 || len(cb.seg) == 0 {
			if c := min(len(ca.seg), 1) - min(len(cb.seg), 1); c != 0 {
				return c
			}
			return slices.CompareFunc(a, b, func(x, y uint32) int { return strings.Compare(d.Value(x), d.Value(y)) })
		}
		n := min(len(ca.seg), len(cb.seg))
		if c := strings.Compare(ca.seg[:n], cb.seg[:n]); c != 0 {
			return c
		}
		ca.seg, cb.seg = ca.seg[n:], cb.seg[n:]
	}
}

// keyCursor reads the join of ids as its segments: value 0, separator,
// value 1, …, value n−1. seg is what is left of the current segment.
type keyCursor struct {
	d    *intern.Dict
	ids  []uint32
	next int // segments taken so far
	seg  string
}

// fill moves on to the next non-empty segment once seg is spent; seg stays
// empty only when the join is exhausted.
func (c *keyCursor) fill() {
	for len(c.seg) == 0 && c.next < 2*len(c.ids)-1 {
		if c.next%2 == 0 {
			c.seg = c.d.Value(c.ids[c.next/2])
		} else {
			c.seg = keySep
		}
		c.next++
	}
}

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
	Pieces []*Piece

	dict   *intern.Dict
	reason []uint32 // the reason's value IDs
	id     uint32   // sequence key of reason
}

// KeyID is the group's fixed-width reason-sequence identity. It is the
// same across rebuilds over one dictionary.
func (g *Group) KeyID() uint32 { return g.id }

// Dict returns the dictionary the group's IDs live in.
func (g *Group) Dict() *intern.Dict { return g.dict }

// ReasonIDs returns the value IDs of the group's reason, the sequence
// KeyID stands for; CompareKeys orders groups by them. Callers must not
// mutate the slice.
func (g *Group) ReasonIDs() []uint32 { return g.reason }

// Key renders the reason as a joined display string (traces, evaluation,
// tests). Not collision-free — see dataset.JoinKey; nothing decides on it.
func (g *Group) Key() string {
	vals := make([]string, len(g.reason))
	for i, id := range g.reason {
		vals[i] = g.dict.Value(id)
	}
	return dataset.JoinKey(vals)
}

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
			(p.Count() == best.Count() && CompareKeys(p.dict, p.ids, best.ids) < 0) {
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
		if g.Key() == key {
			return g
		}
	}
	return nil
}

// MergeGroups folds group src into group dst, appending src's pieces to
// dst's, and leaves src empty in the block: DropEmpty removes every group a
// pass of merges emptied in one sweep. A block's groups have distinct
// reasons, and a piece's identity includes its reason, so no piece of src
// is one of dst's. A built block's piece array is carved from a shared slab
// with no spare capacity, so an append copies rather than overwrite a
// neighbour. What a merge leaves behind in the build slabs is garbage once
// RSC compacts the block (Collapse).
func (b *Block) MergeGroups(src, dst *Group) {
	dst.Pieces = append(dst.Pieces, src.Pieces...)
	src.Pieces = nil
}

// DropEmpty removes the groups without pieces — the sources MergeGroups
// emptied — keeping the others in order.
func (b *Block) DropEmpty() {
	kept := b.Groups[:0]
	for _, g := range b.Groups {
		if len(g.Pieces) > 0 {
			kept = append(kept, g)
		}
	}
	clear(b.Groups[len(kept):]) // no stale pointer past the end
	b.Groups = kept
}

// Collapse is RSC's rewrite (§5.1.2) and the end of the block's build
// layout: group i keeps only winners[i], which takes all of the group's
// tuples — in ascending order where the group held several pieces. Every
// piece's list ascends, so a group's lists are merged straight into the
// tuple slab (mergeRuns). The block is re-laid into new slabs, one
// allocation per kind, so nothing of the build layout (the pieces RSC
// discards, the lists AGP's merges left behind) outlives the call. Groups,
// pieces and their lists are copies: pointers taken before the call do not
// see the collapsed block.
func (b *Block) Collapse(winners []*Piece) {
	nTuples, nIDs := 0, 0
	for i, g := range b.Groups {
		nTuples += g.TupleCount()
		nIDs += len(g.reason) + len(winners[i].ids)
	}
	ptrs := make([]*Group, len(b.Groups))
	groups := make([]Group, len(b.Groups))
	slots := make([]*Piece, len(b.Groups))
	pieces := make([]Piece, len(b.Groups))
	ids := make([]uint32, 0, nIDs)
	tuples := make([]int, 0, nTuples)
	for i, g := range b.Groups {
		at := len(tuples)
		tuples = mergeRuns(tuples, g.Pieces)
		list := tuples[at:len(tuples):len(tuples)]
		at = len(ids)
		ids = append(ids, g.reason...)
		reason := ids[at:len(ids):len(ids)]
		at = len(ids)
		ids = append(ids, winners[i].ids...)
		pieces[i] = *winners[i]
		pieces[i].TupleIDs = list
		pieces[i].ids = ids[at:len(ids):len(ids)]
		slots[i] = &pieces[i]
		groups[i] = Group{Pieces: slots[i : i+1 : i+1], dict: g.dict, reason: reason, id: g.id}
		ptrs[i] = &groups[i]
	}
	b.Groups = ptrs
}

// mergeRuns appends the union of the pieces' ascending tuple lists, which
// share no ID, to dst, within dst's capacity, in ascending order: the first
// list as it is, then each other one merged in (mergeRun). On the groups
// the benchmark's workloads collapse, up to 64 pieces wide, merging beats
// sorting the concatenation at every width (BENCH_53.json).
func mergeRuns(dst []int, ps []*Piece) []int {
	at := len(dst)
	for k, p := range ps {
		if k == 0 {
			dst = append(dst, p.TupleIDs...)
		} else {
			dst = mergeRun(dst, at, p.TupleIDs)
		}
	}
	return dst
}

// mergeRun merges the ascending run into dst[at:], ascending, within dst's
// capacity: from the back, moving only the IDs above the run's.
func mergeRun(dst []int, at int, run []int) []int {
	i, end := len(dst)-1, len(dst)+len(run)
	dst = dst[:end]
	for j := len(run) - 1; j >= 0; end-- {
		if i >= at && dst[i] > run[j] {
			dst[end-1] = dst[i]
			i--
		} else {
			dst[end-1] = run[j]
			j--
		}
	}
	return dst
}

// Reweigh gives each of gs, groups of one piece as Collapse leaves them,
// new group and piece headers over the same reason, value IDs and tuple
// list, the piece weighing ws[i]. Nothing reaches the groups given, so a
// version that holds their pieces keeps their weights.
func Reweigh(gs []*Group, ws []float64) []*Group {
	groups := make([]Group, len(gs))
	pieces := make([]Piece, len(gs))
	slots := make([]*Piece, len(gs))
	ptrs := make([]*Group, len(gs))
	for i, g := range gs {
		pieces[i] = *g.Pieces[0]
		pieces[i].Weight = ws[i]
		slots[i] = &pieces[i]
		groups[i] = Group{Pieces: slots[i : i+1 : i+1], dict: g.dict, reason: g.reason, id: g.id}
		ptrs[i] = &groups[i]
	}
	return ptrs
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

// Index is the full two-layer MLN index.
type Index struct {
	Blocks []*Block
	enc    *dataset.Encoded
}

// ScanChoice reports how one block was built. Scan is always "full-scan":
// every block is built by scanning all rows.
type ScanChoice struct {
	RuleID string
	Scan   string
}

type scanReport []ScanChoice

// Choices returns the report's entries, one per block in rule order.
func (r scanReport) Choices() []ScanChoice { return r }

// Plan reports one full-scan choice per block built so far, in rule order.
// It exists only for the benchmark adapter's plan.full_scan_rules count;
// dropping that read (ROADMAP item 9c) deletes it and ScanChoice.
func (ix *Index) Plan() scanReport {
	r := make(scanReport, len(ix.Blocks))
	for i, b := range ix.Blocks {
		r[i] = ScanChoice{RuleID: b.Rule.ID, Scan: "full-scan"}
	}
	return r
}

// Dict returns the value dictionary the index is encoded against.
func (ix *Index) Dict() *intern.Dict { return ix.enc.Dict }

// Encoded returns the dictionary-encoded rows of the indexed table,
// row-aligned with its tuples.
func (ix *Index) Encoded() *dataset.Encoded { return ix.enc }

// rulePlan precompiles one rule against the schema and dictionary: attribute
// positions and (for CFDs) the interned constants of its reason patterns.
// consts counts the constant patterns, constIDs only those the dictionary
// held when the plan was taken.
type rulePlan struct {
	reasonPos []int
	resultPos []int
	cfd       bool
	hasConst  bool
	consts    int
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
			pl.consts++
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
	// Encoded supplies a pre-encoded companion of the table (streaming
	// ingest encodes during CSV parsing). It must be row-aligned with the
	// table and is adopted as the index's encoding. Nil means the table is
	// encoded here, into a fresh dictionary.
	Encoded *dataset.Encoded
}

// Build constructs the MLN index over the table for the rule set: one block
// per rule (O(|B|·|T|), §4), one group per distinct reason key, one piece
// per distinct reason+result combination. The table is dictionary-encoded
// into a fresh dictionary first, and each block is built by BuildBlockFor
// from a scan of all rows.
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

// BuildBlockFor builds one rule's block over the table: groups in
// first-sight order, pieces in first-sight order within their group, tuple
// lists in row order. enc must be row-aligned with tb and the block is
// encoded into enc's dictionary. A BlockIterator builds every block this
// way, and so does a BlockEditor, once, before it edits the block in place.
//
// The build makes two passes over the rows. The first finds every group and
// piece and mints their sequence keys, in row order, and counts each one's
// support. The second carves the block from one allocation per kind: value
// IDs, tuple lists, pieces, groups and piece lists; a group's reason IDs are
// its first piece's reason prefix. Every carved slice has cap == len: an
// append copies instead of overwriting a neighbour. This build layout lasts
// until RSC, whose Block.Collapse re-lays the block and leaves the build
// slabs to the collector whole, or, in a BlockEditor, for as long as the
// editor keeps the block. The passes' working set is pooled.
func BuildBlockFor(tb *dataset.Table, enc *dataset.Encoded, r *rules.Rule) *Block {
	pl := planRule(r, tb.Schema, enc.Dict)
	s := scratchPool.Get().(*buildScratch)
	defer s.release()
	s.scan(enc, &pl)
	return s.carve(tb, enc, r, &pl)
}

// buildScratch is BuildBlockFor's working set. It holds key IDs, ordinals
// and counts only, so the pool retains nothing of a block.
type buildScratch struct {
	// Pieces are probed on (reason fold, result fold): for the common
	// single-reason/single-result rule shape that is one map access per row
	// with zero sequence-node minting; the dictionary-global sequence keys
	// are minted only when a piece is first seen.
	pMap     map[[2]uint32]int32
	gMap     map[uint32]int32
	rowPiece []int32 // per row: its piece's ordinal, or -1 where the rule does not apply
	pieces   []pieceScan
	groups   []groupScan
	res      []uint32 // result IDs of the piece being minted
}

// pieceScan is one piece as the first pass finds it. Counts and offsets
// are int32 like the row ordinals: the pool keeps the largest block's
// scratch alive between builds.
type pieceScan struct {
	kid   uint32
	group int32
	row   int32 // first supporting row
	n     int32 // support
	at    int32 // the second pass's write cursor into the tuple slab
}

// groupScan is one group as the first pass finds it; the second pass keeps
// its slab cursors here.
type groupScan struct {
	kid              uint32
	pieces, tuples   int32
	pieceAt, tupleAt int32
}

var scratchPool = sync.Pool{New: func() any {
	return &buildScratch{pMap: make(map[[2]uint32]int32), gMap: make(map[uint32]int32)}
}}

func (s *buildScratch) release() {
	clear(s.pMap)
	clear(s.gMap)
	s.pieces, s.groups = s.pieces[:0], s.groups[:0]
	scratchPool.Put(s)
}

// scan is the first pass. It mints sequence keys in row order — Fold on
// every row, Extend when a piece is first seen — so key IDs do not depend
// on how the second pass lays the block out.
func (s *buildScratch) scan(enc *dataset.Encoded, pl *rulePlan) {
	d := enc.Dict
	s.rowPiece = slices.Grow(s.rowPiece[:0], len(enc.Rows))[:len(enc.Rows)]
	for ti, row := range enc.Rows {
		if !pl.appliesTo(row) {
			s.rowPiece[ti] = -1
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
		o, ok := s.pMap[[2]uint32{gk, rk}]
		if !ok {
			o = int32(len(s.pieces))
			s.pMap[[2]uint32{gk, rk}] = o
			g, ok := s.gMap[gk]
			if !ok {
				g = int32(len(s.groups))
				s.gMap[gk] = g
				s.groups = append(s.groups, groupScan{kid: gk})
			}
			s.groups[g].pieces++
			s.res = s.res[:0]
			for _, pos := range pl.resultPos {
				s.res = append(s.res, row[pos])
			}
			s.pieces = append(s.pieces, pieceScan{kid: d.Extend(gk, s.res), group: g, row: int32(ti)})
		}
		s.pieces[o].n++
		s.groups[s.pieces[o].group].tuples++
		s.rowPiece[ti] = o
	}
}

// carve is the second pass: it lays the scanned block out in its slabs and
// fills the tuple lists in row order.
func (s *buildScratch) carve(tb *dataset.Table, enc *dataset.Encoded, r *rules.Rule, pl *rulePlan) *Block {
	if len(s.groups) == 0 {
		return &Block{Rule: r}
	}
	d := enc.Dict
	nReason := len(pl.reasonPos)
	arity := nReason + len(pl.resultPos)
	nTuples := 0
	for _, g := range s.groups {
		nTuples += int(g.tuples)
	}
	tuples := make([]int, nTuples)
	pieces := make([]Piece, len(s.pieces))
	slots := make([]*Piece, len(s.pieces))
	ids := make([]uint32, len(s.pieces)*arity)
	groups := make([]Group, len(s.groups))
	b := &Block{Rule: r, Groups: make([]*Group, len(s.groups))}
	var pieceAt, tupleAt int32
	for gi := range s.groups {
		g := &s.groups[gi]
		groups[gi] = Group{
			Pieces: slots[pieceAt : pieceAt+g.pieces : pieceAt+g.pieces],
			dict:   d,
			id:     g.kid,
		}
		b.Groups[gi] = &groups[gi]
		g.pieceAt, g.tupleAt = pieceAt, tupleAt
		pieceAt += g.pieces
		tupleAt += g.tuples
	}
	// Taken in first-sight order, each group's pieces come in their own
	// first-sight order: each takes its group's next piece slot and the next
	// stretch of the group's tuples.
	for pi := range s.pieces {
		ps := &s.pieces[pi]
		g := &s.groups[ps.group]
		v := ids[pi*arity : (pi+1)*arity : (pi+1)*arity]
		row := enc.Rows[ps.row]
		for i, pos := range pl.reasonPos {
			v[i] = row[pos]
		}
		for i, pos := range pl.resultPos {
			v[nReason+i] = row[pos]
		}
		if groups[ps.group].reason == nil {
			groups[ps.group].reason = v[:nReason:nReason]
		}
		ps.at = g.tupleAt
		g.tupleAt += ps.n
		pieces[pi] = Piece{
			Rule:     r,
			TupleIDs: tuples[ps.at : ps.at+ps.n : ps.at+ps.n],
			dict:     d,
			ids:      v,
			nReason:  nReason,
			kid:      ps.kid,
		}
		slots[g.pieceAt] = &pieces[pi]
		g.pieceAt++
	}
	for ti, o := range s.rowPiece {
		if o >= 0 {
			ps := &s.pieces[o]
			tuples[ps.at] = tb.Tuples[ti].ID
			ps.at++
		}
	}
	return b
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
