package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// The incremental half of the pipeline. A DeltaCleaner holds one table's
// cleaned state — per-rule stage-I blocks, their fusion inputs, and every
// tuple's fused outcome — and re-cleans only what a mutation touches:
//
//   - Dirty-rule detection: a rule's block depends, per row, on whether the
//     rule applies and on the row's projection onto the rule's attributes.
//     A mutation dirties exactly the rules for which either changed; blocks
//     of untouched rules are byte-identical and reused as-is.
//   - Dirty blocks are rebuilt by the single-block scan (index.BuildBlockFor
//     — the scan a full build runs, so identical content) and re-cleaned by
//     the same runBlock on the same scheduler the batch drivers use (AGP →
//     weight learning → RSC), so per-block results cannot drift from a
//     from-scratch run.
//   - Re-fusion is bounded by comparing each tuple's per-block version
//     (piece identity + learned weight, both fixed-width) before and after
//     the rebuild, position by position. An insert or delete splices every
//     block's version index as it splices the table, which keeps it exact:
//     a clean block holds no version of the row, and a dirty block's
//     spliced index is its old one at the current positions. A tuple whose
//     versions are bit-identical fuses to the same assignment, so its
//     cached outcome is reused. Conflicted tuples are always re-fused —
//     their outcome reads global candidate sets and attribute domain sizes,
//     which any mutation may shift.
//   - Every per-tuple cache is a slice parallel to the table, in its
//     ascending-ID order; an ID is found by binary search over a flat slice
//     of the IDs. A re-fused tuple whose fused row did not move keeps its
//     cached tuple.
//   - Each Load and Apply mints an immutable Version (version.go): row
//     chunks by tuple-ID range holding the fused tuples and the repaired
//     cells on value IDs, each block's weight vector, and the duplicate
//     sets. A mint rebuilds only the chunks whose rows a mutation touched or
//     whose fused row moved, and shares every other chunk, every weight
//     vector of a block it did not rebuild, and unchanged duplicate sets
//     with the version before. A trail's rules and weights are resolved when
//     it is read.
//
// The correctness anchor is exact parity: after any mutation sequence, the
// minted version's Result is byte-identical to Clean over the same table
// (the randomized suite in delta_test.go asserts it, and the serving
// layer's versioned results are built on it).

// DeltaOp is a mutation kind.
type DeltaOp int

const (
	// DeltaPut inserts a new tuple or replaces an existing tuple's values.
	DeltaPut DeltaOp = iota
	// DeltaDelete removes a tuple.
	DeltaDelete
)

// Mutation is one tuple-level change, addressed by tuple ID.
type Mutation struct {
	Op  DeltaOp
	Row int
	// Values is the tuple's new values in schema order (ignored for delete).
	Values []string
}

// DeltaStats reports how much work one Apply actually did versus reused.
type DeltaStats struct {
	// DirtyBlocks / ReusedBlocks partition the rule blocks: dirty ones were
	// rebuilt and re-cleaned, reused ones served their cached stage-I state.
	DirtyBlocks  int
	ReusedBlocks int
	// RefusedTuples / ReusedTuples partition the surviving tuples: refused
	// ones re-ran fusion, reused ones kept their cached outcome.
	RefusedTuples int
	ReusedTuples  int
	// Wall is the time Apply spent end to end.
	Wall time.Duration
}

// deltaBlock caches one rule's cleaned state.
type deltaBlock struct {
	rule  *rules.Rule
	block *index.Block // post AGP + learn + RSC
	// oldVers is, during an Apply that rebuilds the block, its version index
	// from before the rebuild at the current table positions; otherwise a
	// spare array for the next rebuild's old index.
	oldVers []uint32
	// weights is the block's fragment of the weight vector repair
	// attribution reads. Every rebuild allocates new arrays (the keys only
	// when the pieces changed), because the versions minted since the last
	// rebuild hold these and they are never written again.
	weights blockWeights
	// res is the block's contribution to the run Stats, kept so the whole
	// Stats can be recomposed without touching clean blocks.
	res blockResult
	// memo carries AGP nearest-target decisions across rebuilds of this
	// block, so a re-clean only re-scores against the groups that moved.
	memo *agpMemo
}

// DeltaCleaner incrementally re-cleans a mutating table. It is not safe for
// concurrent use; callers serialize Load/Apply (the serving session holds
// its own lock).
type DeltaCleaner struct {
	schema *dataset.Schema
	rs     []*rules.Rule
	opts   Options
	dict   *intern.Dict
	// evs are the scheduler's evaluators, one per worker, kept across Load
	// and Apply: their memos hold exact distances only, and are capped.
	evs []*distance.Evaluator

	// The current dirty table in ascending tuple-ID order, plus its encoded
	// companion and their IDs. Rows are engine-owned copies; every encoded
	// row has cap == len, so splicing encRows or replacing a row on PUT never
	// writes into a neighbour.
	tuples  []*dataset.Tuple
	encRows [][]uint32
	ids     []int
	// Each tuple's cached fusion outcome, parallel to tuples: the fused
	// (repaired) tuple and its value IDs, written by fuseOne and replaced
	// wholesale when a re-fuse moves the row, never edited, so Results can
	// share them; and the fusion accounting — a conflicted tuple's fusion
	// read global state (candidates, domain sizes) and re-runs on every
	// Apply.
	fusedTuples []*dataset.Tuple
	fusedRows   [][]uint32
	fuseRes     []fuseResult
	// refuse marks, per position, the tuples an Apply re-fuses.
	refuse []bool

	blocks []*deltaBlock
	// plan is the fusion context the blocks feed: adopt refreshes its
	// block entries, Load/Apply its domain sizes. fuser is the one search
	// engine every re-fusion reuses.
	plan  *fusionPlan
	fuser *fuser
	// scratchRow is what fuseOne builds a fused row in.
	scratchRow []uint32

	// cur is the last minted version, the parent of the next; touched holds
	// the keys of the chunks the next mint rebuilds, and dedup the probe
	// arrays every mint reuses.
	cur     *Version
	touched []int
	dedup   dedupScratch

	loaded bool
}

// NewDeltaCleaner prepares an engine for the schema and rule set. Options
// follow Clean's defaults; Trace is ignored (blocks and fusion outcomes are
// reused across calls, so a per-call trace would only ever be partial), and
// fusion runs with the same τ, metric, priors, and duplicate handling as the
// batch run it must stay byte-identical to.
func NewDeltaCleaner(schema *dataset.Schema, rs []*rules.Rule, opts Options) (*DeltaCleaner, error) {
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("core: delta: empty schema")
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("core: delta: no rules")
	}
	for _, r := range rs {
		if err := r.Validate(schema); err != nil {
			return nil, err
		}
	}
	if err := CheckFusionWidth(schema, rs); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	opts.Trace = nil
	dict := intern.NewDict()
	d := &DeltaCleaner{
		schema: schema,
		rs:     rs,
		opts:   opts,
		dict:   dict,
		evs:    newEvaluators(opts.Metric, dict, opts.workers()),
	}
	posPerBlock := make([][]int, len(rs))
	for ri, r := range rs {
		attrs := r.Attrs()
		pos := make([]int, len(attrs))
		for i, a := range attrs {
			pos[i] = schema.MustIndex(a)
		}
		posPerBlock[ri] = pos
	}
	d.plan = newFusionPlan(dict, schema, posPerBlock, opts)
	d.fuser = newFuser(d.plan)
	return d, nil
}

// Load is LoadVersion, materialized as Clean's Result of tb.
func (d *DeltaCleaner) Load(tb *dataset.Table) (*Result, error) {
	v, err := d.LoadVersion(tb)
	if err != nil {
		return nil, err
	}
	return v.Result(), nil
}

// LoadVersion seeds the engine with a full clean of tb: every block is built
// and cleaned, every tuple fused, and version 1 minted. Tuple IDs must be
// unique and every tuple must be schema-wide; rows are adopted in
// ascending-ID order (the engine's canonical table order, which Apply
// preserves across inserts and deletes). tb is not retained or modified.
func (d *DeltaCleaner) LoadVersion(tb *dataset.Table) (*Version, error) {
	if d.loaded {
		return nil, fmt.Errorf("core: delta: already loaded")
	}
	if tb == nil || tb.Len() == 0 {
		return nil, fmt.Errorf("core: empty input table")
	}
	if tb.Schema.Len() != d.schema.Len() {
		return nil, fmt.Errorf("core: delta: schema width mismatch")
	}
	for _, t := range tb.Tuples {
		if len(t.Values) != d.schema.Len() {
			return nil, fmt.Errorf("core: delta: tuple %d has %d values, schema has %d", t.ID, len(t.Values), d.schema.Len())
		}
	}
	d.tuples = tb.Clone().Tuples
	sort.SliceStable(d.tuples, func(i, j int) bool { return d.tuples[i].ID < d.tuples[j].ID })
	for i := 1; i < len(d.tuples); i++ {
		if d.tuples[i-1].ID == d.tuples[i].ID {
			return nil, fmt.Errorf("core: delta: duplicate tuple id %d", d.tuples[i].ID)
		}
	}
	d.encRows = dataset.Encode(d.view(), d.dict).Rows
	n := len(d.tuples)
	d.ids = make([]int, n)
	for i, t := range d.tuples {
		d.ids[i] = t.ID
	}
	d.fusedTuples, d.fusedRows, d.fuseRes = make([]*dataset.Tuple, n), make([][]uint32, n), make([]fuseResult, n)

	d.blocks = make([]*deltaBlock, len(d.rs))
	all := make([]int, len(d.rs))
	for ri, r := range d.rs {
		d.blocks[ri] = &deltaBlock{rule: r, memo: &agpMemo{}}
		all[ri] = ri
	}
	if err := d.cleanBlocks(all); err != nil {
		return nil, err
	}
	d.plan.countDomains(d.encRows)
	for i := range d.tuples {
		d.fuseOne(i)
	}
	d.loaded = true
	mDeltaLoads.Inc()
	return d.mint(), nil
}

// Apply is ApplyVersion, with the version materialized as Clean's Result of
// the mutated table.
func (d *DeltaCleaner) Apply(muts []Mutation) (*Result, *DeltaStats, error) {
	v, ds, err := d.ApplyVersion(muts)
	if err != nil {
		return nil, nil, err
	}
	return v.Result(), ds, nil
}

// ApplyVersion folds a mutation batch into the table, re-cleans
// incrementally and mints the next version (byte-identical to a
// from-scratch Clean of the mutated table), returned with the delta
// accounting. On a validation error the engine state is unchanged;
// mutations are validated up front, then applied as one batch.
func (d *DeltaCleaner) ApplyVersion(muts []Mutation) (*Version, *DeltaStats, error) {
	t0 := time.Now()
	if !d.loaded {
		return nil, nil, fmt.Errorf("core: delta: not loaded")
	}
	if len(muts) == 0 {
		return nil, nil, fmt.Errorf("core: delta: empty mutation batch")
	}
	if err := d.validate(muts); err != nil {
		return nil, nil, err
	}

	// Fold the batch into the table, collecting the dirtied rules. Each
	// mutation sees the state its predecessors left. An insert or delete
	// splices every per-position slice, every block's version index
	// included.
	dirty := make([]bool, len(d.rs))
	vers := d.plan.versionOf
	for _, m := range muts {
		d.touch(m.Row)
		pos, exists := d.posOf(m.Row)
		if m.Op == DeltaDelete {
			d.markApplying(dirty, d.tuples[pos].Values)
			d.tuples = slices.Delete(d.tuples, pos, pos+1)
			d.encRows = slices.Delete(d.encRows, pos, pos+1)
			d.ids = slices.Delete(d.ids, pos, pos+1)
			d.fusedTuples = slices.Delete(d.fusedTuples, pos, pos+1)
			d.fusedRows = slices.Delete(d.fusedRows, pos, pos+1)
			d.fuseRes = slices.Delete(d.fuseRes, pos, pos+1)
			for ri := range vers {
				vers[ri] = slices.Delete(vers[ri], pos, pos+1)
			}
			continue
		}
		vals := slices.Clone(m.Values)
		if !exists {
			d.markApplying(dirty, vals)
			d.tuples = slices.Insert(d.tuples, pos, &dataset.Tuple{ID: m.Row, Values: vals})
			d.encRows = slices.Insert(d.encRows, pos, d.encode(vals))
			d.ids = slices.Insert(d.ids, pos, m.Row)
			d.fusedTuples = slices.Insert(d.fusedTuples, pos, nil)
			d.fusedRows = slices.Insert(d.fusedRows, pos, nil)
			d.fuseRes = slices.Insert(d.fuseRes, pos, fuseResult{})
			for ri := range vers {
				vers[ri] = slices.Insert(vers[ri], pos, 0)
			}
			continue
		}
		old := d.tuples[pos].Values
		for ri, r := range d.rs {
			if d.ruleDirtyOnUpdate(r, ri, old, vals) {
				dirty[ri] = true
			}
		}
		d.tuples[pos].Values = vals
		d.encRows[pos] = d.encode(vals)
	}

	// Mark the live tuples the batch put, and the conflicted ones: those read
	// global candidate sets and domain sizes, which any mutation may have
	// shifted.
	d.refuse = append(d.refuse[:0], make([]bool, len(d.tuples))...)
	for _, m := range muts {
		if pos, live := d.posOf(m.Row); live && m.Op == DeltaPut {
			d.refuse[pos] = true
		}
	}
	for i, r := range d.fuseRes {
		if r.conflicted != 0 {
			d.refuse[i] = true
		}
	}

	// A dirty block's old index is set aside, with its pieces, and adopt
	// places the rebuilt one in the spare array.
	ds := &DeltaStats{}
	var rebuilt []int
	var oldPieces [][]*index.Piece
	for ri, isDirty := range dirty {
		if isDirty {
			db := d.blocks[ri]
			rebuilt = append(rebuilt, ri)
			oldPieces = append(oldPieces, d.plan.blocks[ri].Pieces)
			db.oldVers, vers[ri] = vers[ri], db.oldVers
		}
	}
	ds.DirtyBlocks, ds.ReusedBlocks = len(rebuilt), len(d.rs)-len(rebuilt)
	if err := d.cleanBlocks(rebuilt); err != nil {
		// Learn errors are a function of the options alone, so a Load that
		// succeeded cannot fail here; surface it anyway rather than serve a
		// half-updated result.
		return nil, nil, err
	}
	// Mark every position whose version moved in a rebuilt block: another
	// piece or weight, or a version on one side only.
	for k, ri := range rebuilt {
		was, now, at := oldPieces[k], d.plan.blocks[ri].Pieces, vers[ri]
		for i, a := range d.blocks[ri].oldVers {
			b := at[i]
			if (a == 0) != (b == 0) || a != 0 && (was[a-1].KeyID() != now[b-1].KeyID() || was[a-1].Weight != now[b-1].Weight) {
				d.refuse[i] = true
			}
		}
	}
	d.plan.countDomains(d.encRows)

	for i, re := range d.refuse {
		if re {
			d.fuseOne(i)
			ds.RefusedTuples++
		}
	}
	ds.ReusedTuples = len(d.tuples) - ds.RefusedTuples
	ds.Wall = time.Since(t0)

	mDeltaApplies.Inc()
	mDeltaDirtyBlocks.Add(int64(ds.DirtyBlocks))
	mDeltaReusedBlocks.Add(int64(ds.ReusedBlocks))
	mDeltaRefusedTuples.Add(int64(ds.RefusedTuples))
	mDeltaReusedTuples.Add(int64(ds.ReusedTuples))
	mDeltaSeconds.ObserveDuration(ds.Wall)
	return d.mint(), ds, nil
}

// validate checks a whole batch against the state each mutation will see,
// without changing anything. Errors name the first offending mutation.
func (d *DeltaCleaner) validate(muts []Mutation) error {
	live := len(d.tuples)
	present := make(map[int]bool)
	for mi, m := range muts {
		if m.Row < 0 {
			return fmt.Errorf("core: delta: mutation %d: negative row %d", mi, m.Row)
		}
		exists, known := present[m.Row]
		if !known {
			exists = d.Has(m.Row)
		}
		switch m.Op {
		case DeltaPut:
			if len(m.Values) != d.schema.Len() {
				return fmt.Errorf("core: delta: mutation %d: row %d has %d values, schema has %d",
					mi, m.Row, len(m.Values), d.schema.Len())
			}
			if !exists {
				live++
			}
			present[m.Row] = true
		case DeltaDelete:
			if !exists {
				return fmt.Errorf("core: delta: mutation %d: delete of unknown row %d", mi, m.Row)
			}
			live--
			present[m.Row] = false
		default:
			return fmt.Errorf("core: delta: mutation %d: unknown op %d", mi, m.Op)
		}
	}
	if live == 0 {
		return fmt.Errorf("core: delta: batch would empty the table")
	}
	return nil
}

// Len is the current table size.
func (d *DeltaCleaner) Len() int { return len(d.tuples) }

// Has reports whether the tuple ID is live.
func (d *DeltaCleaner) Has(row int) bool {
	_, ok := d.posOf(row)
	return ok
}

// posOf is the position of the live tuple with the given ID, or where it
// would be inserted.
func (d *DeltaCleaner) posOf(id int) (int, bool) {
	return slices.BinarySearch(d.ids, id)
}

// Table materializes the current dirty table (ascending tuple-ID order, IDs
// preserved). The copy is independent of engine state.
func (d *DeltaCleaner) Table() *dataset.Table { return d.view().Clone() }

// Weights decodes the current post-stage-I piece summaries, concatenated in
// rule order — the weight vector Trail attributes repairs against. Equal to
// the summaries a from-scratch Clean of the same table exposes on its index.
func (d *DeltaCleaner) Weights() []index.PieceSummary {
	var out []index.PieceSummary
	for _, db := range d.blocks {
		out = append(out, db.block.PieceSummaries()...)
	}
	return out
}

// encode interns one row into the engine's dictionary.
func (d *DeltaCleaner) encode(vals []string) []uint32 {
	row := make([]uint32, len(vals))
	for i, v := range vals {
		row[i] = d.dict.Intern(v)
	}
	return row
}

// view is the engine table as a dataset.Table header (shared tuples, no copy).
func (d *DeltaCleaner) view() *dataset.Table {
	return &dataset.Table{Schema: d.schema, Tuples: d.tuples}
}

// cleanBlocks (re)builds the blocks of rules ris (ascending) over the
// current table and cleans them through the stage-I pool, each with its AGP
// memo, refreshing every cache a block feeds. Building mints dictionary
// keys, so it stays on this goroutine and in rule order, exactly as a batch
// clean's block iterator builds.
func (d *DeltaCleaner) cleanBlocks(ris []int) error {
	if len(ris) == 0 {
		return nil // a mutation that dirtied no block observes no stage
	}
	enc := &dataset.Encoded{Dict: d.dict, Rows: d.encRows}
	next := 0
	build := func() (int, *index.Block, bool) {
		if next == len(ris) {
			return 0, nil, false
		}
		next++
		return next - 1, index.BuildBlockFor(d.view(), enc, d.rs[ris[next-1]]), true
	}
	results, err := schedule(context.Background(), d.evs, len(ris), build, func(k int, b *index.Block, c crew) blockResult {
		ri := ris[k]
		res := runBlock(ri, b, c, d.opts, phaseAll, d.blocks[ri].memo)
		if res.err == nil {
			d.adopt(ri, b, res)
		}
		return res
	})
	if err != nil {
		return err
	}
	// Only the instruments are wanted here: mint recomposes the Stats
	// from every block's res, rebuilt or not.
	fold(results, phaseAll, new(Stats))
	return nil
}

// adopt makes b rule ri's cleaned block. It writes only that block's own
// slots, so the pool's workers adopt their blocks side by side.
func (d *DeltaCleaner) adopt(ri int, b *index.Block, res blockResult) {
	db := d.blocks[ri]
	db.block, db.res = b, res
	fb := fusionBlockOf(b)
	d.plan.blocks[ri] = fb
	d.plan.candidates[ri] = buildBlockCands(fb, d.plan.posPerBlock[ri])
	// The version index is placed again over the current positions, in its
	// own array.
	d.plan.placeVersions(ri, append(d.plan.versionOf[ri][:0], make([]uint32, len(d.tuples))...), d.posOf)
	// Keys are distinct: RSC leaves one piece per group, and groups differ
	// in their reason.
	// A rebuild that kept the block's pieces keeps its key array, which no
	// version writes.
	ps := slices.Clone(fb.Candidates)
	slices.SortFunc(ps, func(a, b *index.Piece) int { return cmp.Compare(a.KeyID(), b.KeyID()) })
	w := blockWeights{keys: db.weights.keys, weights: make([]float64, len(ps))}
	if !slices.EqualFunc(ps, w.keys, func(p *index.Piece, k uint32) bool { return p.KeyID() == k }) {
		w.keys = make([]uint32, len(ps))
		for i, p := range ps {
			w.keys[i] = p.KeyID()
		}
	}
	for i, p := range ps {
		w.weights[i] = p.Weight
	}
	db.weights = w
}

// fuseOne re-runs fusion for the tuple at position i against the current
// blocks and caches the outcome. The fused row is built in the engine's
// scratch row: a tuple whose fused row did not move keeps its cached tuple
// and row (the values are the row's strings), and only one whose row moved
// gets a fresh tuple. An unchanged tuple's shares the engine tuple's values,
// which a mutation replaces and never edits.
func (d *DeltaCleaner) fuseOne(i int) {
	t, dirtyRow := d.tuples[i], d.encRows[i]
	res := d.fuser.fuse(t, i, dirtyRow, nil)
	d.fuseRes[i] = res
	row := dirtyRow
	if res.changes > 0 {
		d.scratchRow = d.fuser.appendFused(d.scratchRow[:0], dirtyRow)
		row = d.scratchRow
	}
	if slices.Equal(d.fusedRows[i], row) { // never for a new tuple's nil row
		return
	}
	d.touch(t.ID)
	fused := &dataset.Tuple{ID: t.ID, Values: t.Values}
	if res.changes > 0 {
		row = slices.Clone(row) // the cache must not hold the scratch buffer
		fused.Values = make([]string, len(t.Values))
		repairedValues(fused.Values, t.Values, row, dirtyRow, d.dict)
	}
	d.fusedTuples[i], d.fusedRows[i] = fused, row
}

// markApplying marks dirty every rule that applies to a row of values.
func (d *DeltaCleaner) markApplying(dirty []bool, vals []string) {
	for ri, r := range d.rs {
		if r.AppliesToValues(d.schema, vals) {
			dirty[ri] = true
		}
	}
}

// ruleDirtyOnUpdate reports whether replacing old with new changes rule r's
// block: membership flipped, or a member's projection onto the rule's
// attributes moved.
func (d *DeltaCleaner) ruleDirtyOnUpdate(r *rules.Rule, ri int, old, new []string) bool {
	oldIn := r.AppliesToValues(d.schema, old)
	newIn := r.AppliesToValues(d.schema, new)
	if oldIn != newIn {
		return true
	}
	if !oldIn {
		return false
	}
	for _, p := range d.plan.posPerBlock[ri] {
		if old[p] != new[p] {
			return true
		}
	}
	return false
}
