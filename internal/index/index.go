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
}

// ScanChoice reports how one block was built. Scan is always "full-scan":
// every block is one pass over all rows.
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
	// Encoded supplies a pre-encoded companion of the table (streaming
	// ingest encodes during CSV parsing). It must be row-aligned with the
	// table and is adopted as the index's encoding. Nil means the table is
	// encoded here, into a fresh dictionary.
	Encoded *dataset.Encoded
}

// Build constructs the MLN index over the table for the rule set: one block
// per rule (O(|B|·|T|), §4), one group per distinct reason key, one piece
// per distinct reason+result combination. The table is dictionary-encoded
// into a fresh dictionary first, and each block is one pass over all rows.
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

// BuildBlockFor builds one rule's block over the table in one pass over the
// rows: groups in first-sight order, pieces in first-sight order within their
// group, tuple lists in row order. enc must be row-aligned with tb and the
// block is encoded into enc's dictionary. A BlockIterator builds every block
// this way; the incremental delta engine calls it directly to re-derive only
// the blocks a mutation dirtied.
func BuildBlockFor(tb *dataset.Table, enc *dataset.Encoded, r *rules.Rule) *Block {
	b := &Block{Rule: r}
	d := enc.Dict
	pl := planRule(r, tb.Schema, d)
	gMap := make(map[uint32]*Group)
	// Pieces are probed on (reason fold, result fold): for the common
	// single-reason/single-result rule shape that is one map access per
	// tuple with zero sequence-node minting; the dictionary-global sequence
	// keys are minted only when a piece is first seen.
	pMap := make(map[[2]uint32]*Piece, len(tb.Tuples)/4+8)
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
			p = pl.newPiece(r, d, row, gk)
			pMap[[2]uint32{gk, rk}] = p
			g, ok := gMap[gk]
			if !ok {
				g = &Group{Key: dataset.JoinKey(p.Reason()), id: gk}
				gMap[gk] = g
				b.Groups = append(b.Groups, g)
			}
			g.Pieces = append(g.Pieces, p)
		}
		p.TupleIDs = append(p.TupleIDs, t.ID)
	}
	return b
}

// newPiece mints the piece of an encoded row whose reason fold is gk.
func (pl *rulePlan) newPiece(r *rules.Rule, d *intern.Dict, row []uint32, gk uint32) *Piece {
	nReason := len(pl.reasonPos)
	ids := make([]uint32, 0, nReason+len(pl.resultPos))
	for _, pos := range pl.reasonPos {
		ids = append(ids, row[pos])
	}
	for _, pos := range pl.resultPos {
		ids = append(ids, row[pos])
	}
	return &Piece{Rule: r, dict: d, ids: ids, nReason: nReason, kid: d.Extend(gk, ids[nReason:])}
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

// PieceSummary is the string form of one piece's weight record: its
// identity (rule + exact values, plus the joined display key), support
// count, and learned weight. The delta engine's Weights and mlnserve's
// repair trail read these; the distributed Eq. 6 exchange ships the same
// record in value IDs instead.
type PieceSummary struct {
	RuleID string
	// Key is the joined display form of Values; Values is the
	// authoritative identity.
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

// ApplyPieceWeights is the write-back half of the Eq. 6 exchange for block
// bi: ids holds one run of value IDs per weight, each the length of the
// rule's reason plus result in the index's dictionary, and every piece whose
// values are run i takes weights[i]. Pieces without a matching run keep
// their weight. Runs resolve through the dictionary's sequence keys (lookup
// only), so a run no piece carries is skipped without growing the
// dictionary. The caller keeps len(ids) = arity·len(weights).
func (ix *Index) ApplyPieceWeights(bi int, ids []uint32, weights []float64) {
	if len(weights) == 0 {
		return
	}
	b := ix.Blocks[bi]
	arity := len(ids) / len(weights)
	d := ix.Dict()
	merged := make(map[uint32]float64, len(weights))
	for i, w := range weights {
		if kid, ok := d.LookupSeq(ids[i*arity : (i+1)*arity]); ok {
			merged[kid] = w
		}
	}
	for _, g := range b.Groups {
		for _, p := range g.Pieces {
			if w, ok := merged[p.kid]; ok {
				p.Weight = w
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
