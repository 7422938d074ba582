package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"
	"unsafe"

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
//   - Block edits: every block is built once, at Load, by the single-block
//     scan (index.BuildBlockFor) into an index.BlockEditor that keeps it as
//     the build lays it out, before stage I. A mutation moves the row's
//     tuple ID between the pieces of every kept block whose rule applies to
//     the row before or after, minting a key only for a new piece, so a kept
//     block is always the block the scan would build for the current table
//     (TestDeltaBlockEditMatchesBuild checks it after every step). A rule
//     is dirty when the edit changed its block: the rule's membership
//     flipped, or a member's projection onto the rule's attributes moved.
//     Blocks of untouched rules are byte-identical and reused as-is.
//   - A dirty block is re-cleaned group by group (reclean), on the same
//     scheduler and with the same phase code the batch drivers use (AGP →
//     weight learning → RSC). AGP decides on the kept block without writing
//     it. A group after AGP is redone — copied out of the kept block (new
//     headers over its lists, which stage I cannot reach), merged, learned
//     with the block's Σc, given its RSC winner and collapsed — only when a
//     group it holds now or held at the last re-clean was touched by the
//     edits since (index.BlockEditor.Touched), or when one of its sources'
//     merge decisions moved. Every other group is the collapsed group the
//     last re-clean left, reused by pointer: its pieces and Σc are the
//     same, so it would learn the same bits and pick the same winner. An
//     insert, a delete or a membership flip moves Σc, and every group of
//     the block is redone, through the same code.
//   - Each block keeps its AGP memo (agpMemo) across its re-cleans: each
//     abnormal group's nearest-target decision, so a re-clean re-scores
//     sources only against the targets that moved, and compares the merges
//     it decides with the last ones. Besides it, a block keeps only two
//     small ints per group — its Newton steps and its pieces before RSC —
//     so a reused group still counts in LearnIterations and RSCRepairs.
//   - Re-fusion is bounded by each tuple's per-block version (piece
//     identity, fixed-width). Each RSC winner holds a slot in the block's
//     version table, which the block's version index names by table
//     position; a winner keeps its slot across re-cleans, and only the
//     tuples of winners new, gone or with another tuple list are placed
//     again (place). Those are the positions whose version can have moved,
//     and the only ones marked for re-fusion by the block. An insert or
//     delete splices every block's version index as it splices the table,
//     which keeps it exact: a clean block holds no version of the row, and
//     a dirty block's spliced index is its old one at the current
//     positions. A tuple without a conflict fuses to the union of its
//     versions, which reads no weight, so a tuple whose pieces are the same
//     fuses to the same assignment and its cached outcome is reused.
//     Conflicted tuples are always re-fused — their outcome reads weights,
//     global candidate sets and attribute domain sizes, which any mutation
//     may shift.
//   - Every per-tuple cache is a slice parallel to the table, in its
//     ascending-ID order; an ID is found by binary search over a flat slice
//     of the IDs, galloping forward along a piece's ascending tuple IDs
//     when a group's tuples are placed. A re-fused tuple whose fused row
//     did not move keeps its cached tuple.
//   - Each Load and Apply mints an immutable Version (version.go): row
//     chunks by tuple-ID range holding the fused tuples and the repaired
//     cells on value IDs, each block's weight vector, and the duplicate
//     sets. A mint rebuilds only the chunks whose rows a mutation touched or
//     whose fused row moved, and shares every other chunk, every weight
//     vector of a block it did not re-clean, and unchanged duplicate sets
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
	// edited and re-cleaned, reused ones served their cached stage-I state.
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
	rule *rules.Rule
	// kept is the block as the build lays it out for the current table,
	// before stage I: every Apply edits it in place, and stage I cleans a
	// copy of it.
	kept  *index.BlockEditor
	block *index.Block // post AGP + learn + RSC
	// steps and pieces hold, per group of block, the Newton steps its
	// weights took and the pieces it held before RSC kept one: what a group
	// a re-clean reuses adds to the block's LearnIterations and RSCRepairs.
	steps, pieces []int32
	// total is the block's Σc at the last re-clean: while it holds, every
	// group whose pieces are the same learns the same weights.
	total int
	// laid is what the re-cleans since the last one that laid out every
	// group laid out, and full what that one laid out, in bytes: reused
	// groups keep the slabs they were laid out in alive, so once laid
	// passes half of full every group is laid out again.
	laid, full int
	// slotOf names each of the block's RSC winners, by piece KeyID, by its
	// slot in the fusion block's Pieces: the slot the version index holds
	// for every tuple of its group. A winner keeps its slot across
	// re-cleans, so only the tuples of a group that moved are placed again.
	slotOf map[uint32]uint32
	// moved lists the table positions whose version in this block the last
	// re-clean moved.
	moved []int
	// weights is the block's fragment of the weight vector repair
	// attribution reads. Every re-clean allocates new arrays (the keys only
	// when the pieces changed), because the versions minted since the last
	// one hold these and they are never written again.
	weights blockWeights
	// res is the block's contribution to the run Stats, kept so the whole
	// Stats can be recomposed without touching clean blocks.
	res blockResult
	// memo carries AGP nearest-target decisions across re-cleans of this
	// block, so a re-clean only re-scores against the groups that moved,
	// and tells it which groups merged where the last time.
	memo *blockMemo
}

// blockMemo is what one block's re-clean leaves the next, and the arrays it
// builds the learner's inputs in.
type blockMemo struct {
	agp    agpMemo
	inputs learnInputs
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
	// companion and their IDs. Rows are engine-owned copies; a PUT replaces
	// a tuple and its encoded row, never edits them, since versions share
	// them. Every encoded row has cap == len, so splicing encRows never
	// writes into a neighbour. These and every other slice parallel to the
	// table grow by a sixteenth when an insert finds them full (insertAt).
	tuples  []*dataset.Tuple
	encRows [][]uint32
	ids     []int
	// Each tuple's cached fusion outcome, parallel to tuples: the fused
	// (repaired) tuple and its value IDs, written by fuseOne and replaced
	// wholesale when a re-fuse moves the row, never edited, so Results can
	// share them (an unchanged tuple's are the engine's own tuple and row);
	// and the fusion accounting — a conflicted tuple's fusion
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
		d.blocks[ri] = &deltaBlock{rule: r, slotOf: make(map[uint32]uint32), memo: &blockMemo{}}
		d.plan.blocks[ri] = &FusionBlock{Rule: r, Attrs: r.Attrs()}
		d.plan.versionOf[ri] = make([]uint32, n)
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

	// Fold the batch into the table and every kept block, collecting the
	// rules whose blocks changed. Each mutation sees the state its
	// predecessors left. An insert or delete splices every per-position
	// slice, every block's version index included, so each index stays the
	// old placement at the current positions.
	dirty := make([]bool, len(d.rs))
	vers := d.plan.versionOf
	// gone holds, per ID the batch deleted, its versions in every block, so
	// a re-put of the ID in the same batch splices them back: the old
	// winners still list it, and place compares against them.
	var gone map[int][]uint32
	for _, m := range muts {
		d.touch(m.Row)
		pos, exists := d.posOf(m.Row)
		var from []uint32
		if exists {
			from = d.encRows[pos]
		}
		if m.Op == DeltaDelete {
			d.edit(dirty, m.Row, from, nil)
			d.tuples = slices.Delete(d.tuples, pos, pos+1)
			d.encRows = slices.Delete(d.encRows, pos, pos+1)
			d.ids = slices.Delete(d.ids, pos, pos+1)
			d.fusedTuples = slices.Delete(d.fusedTuples, pos, pos+1)
			d.fusedRows = slices.Delete(d.fusedRows, pos, pos+1)
			d.fuseRes = slices.Delete(d.fuseRes, pos, pos+1)
			was := make([]uint32, len(vers))
			for ri := range vers {
				was[ri] = vers[ri][pos]
				vers[ri] = slices.Delete(vers[ri], pos, pos+1)
			}
			if gone == nil {
				gone = make(map[int][]uint32)
			}
			gone[m.Row] = was
			continue
		}
		vals := slices.Clone(m.Values)
		row := d.encode(vals)
		d.edit(dirty, m.Row, from, row)
		if exists {
			d.tuples[pos] = &dataset.Tuple{ID: m.Row, Values: vals}
			d.encRows[pos] = row
			continue
		}
		d.tuples = insertAt(d.tuples, pos, &dataset.Tuple{ID: m.Row, Values: vals})
		d.encRows = insertAt(d.encRows, pos, row)
		d.ids = insertAt(d.ids, pos, m.Row)
		d.fusedTuples = insertAt(d.fusedTuples, pos, nil)
		d.fusedRows = insertAt(d.fusedRows, pos, nil)
		d.fuseRes = insertAt(d.fuseRes, pos, fuseResult{})
		was := gone[m.Row] // nil for an ID new to the old winners
		for ri := range vers {
			var v uint32
			if was != nil {
				v = was[ri]
			}
			vers[ri] = insertAt(vers[ri], pos, v)
		}
	}

	// Mark the live tuples the batch put, and the conflicted ones: those read
	// global candidate sets and domain sizes, which any mutation may have
	// shifted.
	if n := len(d.tuples); cap(d.refuse) < n {
		d.refuse = make([]bool, n, n+n/16)
	}
	d.refuse = d.refuse[:len(d.tuples)]
	clear(d.refuse) // one buffer for every Apply
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

	ds := &DeltaStats{}
	var edited []int
	for ri, isDirty := range dirty {
		if isDirty {
			edited = append(edited, ri)
		}
	}
	ds.DirtyBlocks, ds.ReusedBlocks = len(edited), len(d.rs)-len(edited)
	if err := d.cleanBlocks(edited); err != nil {
		// Learn errors are a function of the options alone, so a Load that
		// succeeded cannot fail here; surface it anyway rather than serve a
		// half-updated result.
		return nil, nil, err
	}
	// Mark every position whose version a re-cleaned block moved: another
	// piece, or a version on one side only. A weight alone cannot change a
	// tuple without a conflict (fusion reads weights only into the trace's
	// score), and conflicted tuples are marked above.
	for _, ri := range edited {
		for _, i := range d.blocks[ri].moved {
			d.refuse[i] = true
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

// walkPos is posOf for a walk over ascending runs of tuple IDs, as each
// piece's TupleIDs are: it gallops forward from the position it found last,
// and starts again from the front when an ID goes down.
func (d *DeltaCleaner) walkPos() func(id int) (int, bool) {
	ids := d.ids
	from, last := 0, 0
	return func(id int) (int, bool) {
		if id < last {
			from = 0
		}
		last = id
		// Every ID before from is below id; the stride doubles until one at
		// hi is not.
		hi, step := from, 1
		for hi < len(ids) && ids[hi] < id {
			from = hi + 1
			hi += step
			step *= 2
		}
		i, ok := slices.BinarySearch(ids[from:min(hi+1, len(ids))], id)
		from += i
		return from, ok
	}
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

// cleanBlocks re-cleans the blocks of rules ris (ascending) through the
// stage-I pool (reclean) and refreshes every cache a block feeds. A block
// is built, the first time, into the editor that keeps it: building mints
// dictionary keys, so it stays on this goroutine and in rule order, exactly
// as a batch clean's block iterator builds.
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
		db := d.blocks[ris[next]]
		if db.kept == nil {
			db.kept = index.NewBlockEditor(d.view(), enc, db.rule)
		}
		next++
		return next - 1, db.kept.Block(), true
	}
	results, err := schedule(context.Background(), d.evs, len(ris), build, func(k int, _ *index.Block, c crew) blockResult {
		ri := ris[k]
		res := d.reclean(ri, c)
		if res.err == nil {
			d.adopt(ri, res)
		}
		return res
	})
	if err != nil {
		return err
	}
	// Only the instruments are wanted here: mint recomposes the Stats
	// from every block's res, re-cleaned or not.
	fold(results, phaseAll, new(Stats))
	return nil
}

// reclean is stage I (AGP → weight learning → RSC) for rule ri's block on
// the crew, redoing only the groups whose outcome can have moved. AGP
// decides on the kept block, which it does not write (agpDecide). A group
// after AGP — a group that stays, with the sources merged into it — is
// redone when a group it holds now, or held at the last re-clean, was
// touched since (index.BlockEditor.Touched), or when one of its sources'
// decisions moved (redo). A redone group is copied out of the kept block,
// merged, learned with the block's Σc, given its RSC winner and collapsed;
// every other group is the collapsed group the last re-clean left, whose
// pieces, counts and Σc are the same, so it would learn the same bits and
// pick the same winner. The groups keep the kept block's order, less the
// merged sources, as agp over a copy of the kept block leaves them.
//
// Load, and a re-clean that moves the block's Σc (an insert, a delete, a
// rule's membership flip) or meets a promotion, redo every group: the same
// code, with nothing reused.
func (d *DeltaCleaner) reclean(ri int, c crew) (r blockResult) {
	db := d.blocks[ri]
	kept := db.kept.Block()
	mBlocksInFlight.Add(1)
	defer mBlocksInFlight.Add(-1)
	start := time.Now()
	t := start
	lap := func() time.Duration {
		now := time.Now()
		dt := now.Sub(t)
		t = now
		return dt
	}
	prev := db.memo.agp.best // agpDecide replaces the map
	p := agpDecide(ri, kept, d.opts.Tau, c, d.opts.MergeCapRatio, &db.memo.agp, nil)
	r.abnormal, r.abnormalPieces, r.promotions, r.agpPairs, r.agpFullScans = p.abnormal, p.abnormalPieces, p.promotions, p.pairs, p.fullScans
	redo := db.redo(&p, prev)
	db.kept.ClearTouched()
	redone := func(g *index.Group) bool { return redo == nil || redo[g.KeyID()] }

	// Copy out each redone group and its sources, then merge them.
	n := len(kept.Groups) - len(p.merges) // groups after AGP
	var need []*index.Group
	if redo == nil {
		need = make([]*index.Group, 0, len(kept.Groups))
	}
	at, m := 0, 0 // m: groups redone
	for i, g := range kept.Groups {
		if p.stays(i) && redone(g) {
			m++
			need = append(need, g)
			for _, e := range p.sources(i, &at) {
				need = append(need, kept.Groups[e[1]])
			}
		}
	}
	copies := index.CopyGroups(need)
	work := &index.Block{Rule: kept.Rule, Groups: make([]*index.Group, 0, m)}
	k := 0
	at = 0
	for i, g := range kept.Groups {
		if p.stays(i) && redone(g) {
			dst, srcs := copies[k], len(p.sources(i, &at))
			foldInto(work, dst, copies[k+1:k+1+srcs])
			work.Groups = append(work.Groups, dst)
			k += 1 + srcs
		}
	}
	pre := make([]int32, len(work.Groups))
	for i, g := range work.Groups {
		pre[i] = int32(len(g.Pieces))
	}
	r.agp = lap()
	in := &db.memo.inputs
	if _, r.err = learnGroups(work.Groups, in, p.total); r.err != nil {
		return r
	}
	r.learn = lap()
	rsc(ri, work, c, nil)
	r.regrouped = len(work.Groups)

	// Lay the block out: redone groups as collapsed just now, the others
	// as the last re-clean left them.
	b := &index.Block{Rule: kept.Rule, Groups: make([]*index.Group, 0, n)}
	steps, pieces := make([]int32, 0, n), make([]int32, 0, n)
	old := db.lookup()
	k = 0
	contested := 0
	for i, g := range kept.Groups {
		switch {
		case !p.stays(i):
			continue
		case redone(g):
			st := int32(0)
			if pre[k] > 1 {
				st = int32(in.steps[contested])
				contested++
			}
			b.Groups, steps, pieces = append(b.Groups, work.Groups[k]), append(steps, st), append(pieces, pre[k])
			k++
		default:
			o := old(g.KeyID())
			b.Groups, steps, pieces = append(b.Groups, db.block.Groups[o]), append(steps, db.steps[o]), append(pieces, db.pieces[o])
		}
	}
	for i := range steps {
		r.learnIters = max(r.learnIters, int(steps[i]))
		r.repairs += int(pieces[i]) - 1
	}
	laid := laidBytes(work.Groups)
	if redo == nil {
		db.full, db.laid = laid, 0
	} else if db.laid += laid; 2*db.laid > db.full {
		winners := make([]*index.Piece, len(b.Groups))
		for i, g := range b.Groups {
			winners[i] = g.Pieces[0]
		}
		b.Collapse(winners)
		db.full, db.laid = laidBytes(b.Groups), 0
	}
	db.block, db.steps, db.pieces, db.total = b, steps, pieces, p.total
	r.rsc = lap()
	mBlockSeconds.ObserveDuration(t.Sub(start))
	return r
}

// redo returns the KeyIDs of the groups after AGP that the re-clean must
// redo, given the decisions the last re-clean took (prev) and this one's
// (in the memo), or nil when it redoes every group: at Load, when Σc
// moved, or around a promotion, which the memo does not record. A group
// after AGP is named by the group that stays; a merged source belongs to
// its target's. Every group a move touched since is marked in the group it
// belonged to then and in the one it belongs to now, and so is every
// source whose decision moved: merged or not, and into which target.
func (db *deltaBlock) redo(p *agpPlan, prev map[uint32]agpBest) map[uint32]bool {
	if db.block == nil || p.total != db.total || p.promotions > 0 || db.res.promotions > 0 {
		return nil
	}
	now := db.memo.agp.best
	owner := func(best map[uint32]agpBest, k uint32) uint32 {
		if e, ok := best[k]; ok && e.merged {
			return e.target
		}
		return k
	}
	redo := make(map[uint32]bool)
	mark := func(k uint32) {
		redo[owner(prev, k)] = true
		redo[owner(now, k)] = true
	}
	for _, k := range db.kept.Touched() {
		mark(k)
	}
	for k, e := range now {
		if was, ok := prev[k]; !ok || was.merged != e.merged || e.merged && was.target != e.target {
			mark(k)
		}
	}
	for k := range prev {
		if _, ok := now[k]; !ok {
			mark(k)
		}
	}
	return redo
}

// lookup returns a function that finds the group with the given KeyID in
// the block the last re-clean left, by its index. Asked in the order of the
// kept block, it mostly finds each group right after the last one found;
// it indexes the block by KeyID only when that fails.
func (db *deltaBlock) lookup() func(kid uint32) int {
	next := 0
	var at map[uint32]int
	return func(kid uint32) int {
		gs := db.block.Groups
		if next < len(gs) && gs[next].KeyID() == kid {
			next++
			return next - 1
		}
		if at == nil {
			at = make(map[uint32]int, len(gs))
			for i, g := range gs {
				at[g.KeyID()] = i
			}
		}
		i, ok := at[kid]
		if !ok {
			panic(fmt.Sprintf("core: delta: group %d of rule %s is reused but was not cleaned", kid, db.rule.ID))
		}
		next = i + 1
		return i
	}
}

// laidBytes is what Collapse lays out for the groups: per group its
// header, piece slot and piece, its reason and winner value IDs, and its
// tuple list.
func laidBytes(gs []*index.Group) int {
	n := 0
	for _, g := range gs {
		p := g.Pieces[0]
		n += int(unsafe.Sizeof(index.Group{})+unsafe.Sizeof(index.Piece{})+unsafe.Sizeof(p)) +
			4*(len(g.ReasonIDs())+len(p.ValueIDs())) + 8*len(p.TupleIDs)
	}
	return n
}

// adopt makes the block reclean left rule ri's cleaned block. It writes
// only that block's own slots, so the pool's workers adopt their blocks
// side by side.
func (d *DeltaCleaner) adopt(ri int, res blockResult) {
	db := d.blocks[ri]
	b := db.block
	db.res = res
	fb := d.plan.blocks[ri]
	d.place(db, fb, d.plan.versionOf[ri], b)
	fb.Candidates = fb.Pieces
	d.plan.candidates[ri] = buildBlockCands(fb, d.plan.posPerBlock[ri])
	// Keys are distinct: RSC leaves one piece per group, and groups differ
	// in their reason.
	// A re-clean that kept the block's pieces keeps its key array, which no
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

// place brings the block's version index at, and fb.Pieces, the slots it
// names, from the block's last cleaned winners to b's, and lists in
// db.moved the positions whose version moved. A winner whose piece KeyID
// held a slot keeps it, and its tuples that were there keep their entries:
// only the tuples a group lost or gained, and those of a piece new or gone,
// are placed. An emptied slot is refilled by a new winner, or else by the
// last slot's winner, whose tuples are placed again in it, so the slots
// stay dense. Versions are compared by identity: a winner that kept its
// slot takes it over whatever its weight, and a tuple whose version keeps
// its piece has not moved.
func (d *DeltaCleaner) place(db *deltaBlock, fb *FusionBlock, at []uint32, b *index.Block) {
	posOf := d.walkPos()
	moved := db.moved[:0]
	var free []uint32
	slots := fb.Pieces
	live := make([]bool, len(slots), len(slots)+len(b.Groups))
	var fresh []*index.Piece
	var gained []int // positions, then the slot they take
	// Load fuses every tuple: it lists no positions.
	mark := func(i int) {
		if d.loaded {
			moved = append(moved, i)
		}
	}
	drop := func(id int, s uint32) {
		if i, ok := posOf(id); ok && at[i] == s+1 {
			at[i] = 0
			mark(i)
		}
	}
	for _, g := range b.Groups {
		w := g.Pieces[0] // one winner per group after RSC
		s, ok := db.slotOf[w.KeyID()]
		if !ok {
			fresh = append(fresh, w)
			continue
		}
		live[s] = true
		was, now := slots[s].TupleIDs, w.TupleIDs
		slots[s] = w
		if len(was) == len(now) && (len(was) == 0 || &was[0] == &now[0]) || slices.Equal(was, now) {
			continue // a reused group's list is the same slice
		}
		// Both lists ascend: walk them together.
		for len(was) > 0 || len(now) > 0 {
			switch {
			case len(now) == 0 || len(was) > 0 && was[0] < now[0]:
				drop(was[0], s)
				was = was[1:]
			case len(was) == 0 || now[0] < was[0]:
				if i, ok := posOf(now[0]); ok {
					gained = append(gained, i, int(s))
				}
				now = now[1:]
			default:
				was, now = was[1:], now[1:]
			}
		}
	}
	for s, p := range slots {
		if !live[s] {
			delete(db.slotOf, p.KeyID())
			for _, id := range p.TupleIDs {
				drop(id, uint32(s))
			}
			free = append(free, uint32(s))
		}
	}
	for k := 0; k < len(gained); k += 2 {
		at[gained[k]] = uint32(gained[k+1]) + 1
		mark(gained[k])
	}
	for _, w := range fresh {
		var s uint32
		if len(free) > 0 {
			s, free = free[0], free[1:]
			slots[s], live[s] = w, true
		} else {
			s = uint32(len(slots))
			slots, live = append(slots, w), append(live, true)
		}
		db.slotOf[w.KeyID()] = s
		for _, id := range w.TupleIDs {
			if i, ok := posOf(id); ok {
				at[i] = s + 1
				mark(i)
			}
		}
	}
	// Fill the slots still empty from the end, so the slots stay dense.
	for len(free) > 0 {
		last := len(slots) - 1
		if live[last] {
			s := free[0]
			free = free[1:]
			w := slots[last]
			slots[s], live[s] = w, true
			db.slotOf[w.KeyID()] = s
			for _, id := range w.TupleIDs {
				if i, ok := posOf(id); ok {
					at[i] = s + 1
				}
			}
		} else {
			free = free[:len(free)-1] // the last free slot is the last slot
		}
		slots[last] = nil
		slots = slots[:last]
	}
	fb.Pieces = slots
	db.moved = moved
}

// fuseOne re-runs fusion for the tuple at position i against the current
// blocks and caches the outcome. The fused row is built in the engine's
// scratch row: a tuple whose fused row did not move keeps its cached tuple
// and row (the values are the row's strings), and only one whose row moved
// gets a fresh tuple. An unchanged tuple's is the engine's tuple, which a
// mutation replaces and never edits.
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
	fused := t
	if res.changes > 0 {
		row = slices.Clone(row) // the cache must not hold the scratch buffer
		fused = &dataset.Tuple{ID: t.ID, Values: make([]string, len(t.Values))}
		repairedValues(fused.Values, t.Values, row, dirtyRow, d.dict)
	}
	d.fusedTuples[i], d.fusedRows[i] = fused, row
}

// insertAt is slices.Insert of one element, except that a full slice grows
// by a sixteenth of its length rather than by append's factor: the slices
// parallel to the table are as long as the table, and an insert should not
// leave a quarter of each unused.
func insertAt[S ~[]E, E any](s S, i int, v E) S {
	if len(s) == cap(s) {
		s = append(make(S, 0, len(s)+len(s)/16+1), s...)
	}
	return slices.Insert(s, i, v)
}

// edit moves tuple id from encoded row from to row to (nil: no row) in every
// kept block, and marks dirty the rules whose blocks it changed.
func (d *DeltaCleaner) edit(dirty []bool, id int, from, to []uint32) {
	for ri, db := range d.blocks {
		if db.kept.Move(id, from, to) {
			dirty[ri] = true
		}
	}
}
