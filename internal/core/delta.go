package core

import (
	"fmt"
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
//     the same runBlock the batch drivers schedule (AGP → weight learning →
//     RSC), so per-block results cannot drift from a from-scratch run.
//   - Re-fusion is bounded by comparing each tuple's per-block version
//     (piece identity + learned weight, both fixed-width) before and after
//     the rebuild: a tuple whose versions are bit-identical fuses to the
//     same assignment, so its cached outcome is reused. Conflicted tuples
//     are always re-fused — their outcome reads global candidate sets and
//     attribute domain sizes, which any mutation may shift.
//
// The correctness anchor is exact parity: after any mutation sequence,
// Apply's Result is byte-identical to Clean over the same table (the
// randomized suite in delta_test.go asserts it, and the serving layer's
// versioned results are built on it).

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

// verInfo is a tuple's stage-I version in one block, reduced to the two
// fixed-width facts fusion consumes: the piece's sequence identity (which
// determines its exact value IDs) and its learned weight.
type verInfo struct {
	kid    uint32
	weight float64
}

// deltaBlock caches one rule's cleaned state.
type deltaBlock struct {
	rule  *rules.Rule
	block *index.Block // post AGP + learn + RSC
	// vers maps tuple ID → its version facts, for the cheap pre/post rebuild
	// comparison that bounds re-fusion.
	vers map[int]verInfo
	// summaries is the block's post-stage-I piece summary run (the weight
	// vector fragment used for repair attribution).
	summaries []index.PieceSummary
	// res is the block's contribution to the run Stats, kept so the whole
	// Stats can be recomposed without touching clean blocks.
	res blockResult
	// memo carries AGP nearest-target decisions across rebuilds of this
	// block, so a re-clean only re-scores against the groups that moved.
	memo *agpMemo
}

// tupleState is one tuple's cached fusion outcome.
type tupleState struct {
	// tuple is the fused (repaired) tuple and row its value IDs in the
	// engine's dictionary. Both are written once by fuseOne and replaced
	// wholesale on re-fuse, never edited, so Results can share them.
	tuple *dataset.Tuple
	row   []uint32
	// res is the fusion accounting; a conflicted tuple's fusion read global
	// state (candidates, domain sizes) and must re-run on every Apply.
	res fuseResult
}

// DeltaCleaner incrementally re-cleans a mutating table. It is not safe for
// concurrent use; callers serialize Load/Apply (the serving session holds
// its own lock).
type DeltaCleaner struct {
	schema *dataset.Schema
	rs     []*rules.Rule
	opts   Options
	dict   *intern.Dict
	pool   *distance.Pool

	// The current dirty table in ascending tuple-ID order, plus its encoded
	// companion. Rows are engine-owned copies; encRows are individually
	// allocated so inserts and deletes never fight a shared backing array.
	tuples  []*dataset.Tuple
	encRows [][]uint32
	rowPos  map[int]int // tuple ID → position in tuples/encRows

	blocks []*deltaBlock
	// plan is the fusion context the blocks feed: cleanBlock refreshes its
	// block entries, Load/Apply its domain sizes. fuser is the one search
	// engine every re-fusion reuses.
	plan  *fusionPlan
	fuser *fuser
	fused map[int]*tupleState

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
		pool:   distance.NewPool(opts.Metric, dict),
		rowPos: make(map[int]int),
		fused:  make(map[int]*tupleState),
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

// Load seeds the engine with a full clean of tb: every block is built and
// cleaned, every tuple fused, and the result returned. Tuple IDs must be
// unique; rows are adopted in ascending-ID order (the engine's canonical
// table order, which Apply preserves across inserts and deletes). tb is not
// retained or modified.
func (d *DeltaCleaner) Load(tb *dataset.Table) (*Result, error) {
	if d.loaded {
		return nil, fmt.Errorf("core: delta: already loaded")
	}
	if tb == nil || tb.Len() == 0 {
		return nil, fmt.Errorf("core: empty input table")
	}
	if tb.Schema.Len() != d.schema.Len() {
		return nil, fmt.Errorf("core: delta: schema width mismatch")
	}
	d.tuples = make([]*dataset.Tuple, 0, tb.Len())
	d.encRows = make([][]uint32, 0, tb.Len())
	for _, t := range tb.Tuples {
		d.tuples = append(d.tuples, t.Clone())
	}
	sort.SliceStable(d.tuples, func(i, j int) bool { return d.tuples[i].ID < d.tuples[j].ID })
	for i, t := range d.tuples {
		if i > 0 && d.tuples[i-1].ID == t.ID {
			return nil, fmt.Errorf("core: delta: duplicate tuple id %d", t.ID)
		}
		d.encRows = append(d.encRows, d.encode(t.Values))
	}
	d.reindex()

	d.blocks = make([]*deltaBlock, len(d.rs))
	for ri, r := range d.rs {
		db := &deltaBlock{rule: r}
		if err := d.cleanBlock(ri, db); err != nil {
			return nil, err
		}
		d.blocks[ri] = db
	}
	d.plan.countDomains(d.encRows)
	for _, t := range d.tuples {
		d.fuseOne(t.ID)
	}
	d.loaded = true
	mDeltaLoads.Inc()
	return d.assemble(), nil
}

// Apply folds a mutation batch into the table and re-cleans incrementally,
// returning the new full result (byte-identical to a from-scratch Clean of
// the mutated table) plus the delta accounting. On a validation error the
// engine state is unchanged; mutations are validated up front, then applied
// as one batch.
func (d *DeltaCleaner) Apply(muts []Mutation) (*Result, *DeltaStats, error) {
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

	// Fold the batch into the table, collecting the dirtied rules and the
	// mutated tuple IDs. Each mutation sees the state its predecessors left.
	dirty := make([]bool, len(d.rs))
	refuse := make(map[int]struct{})
	for _, m := range muts {
		pos, exists := d.rowPos[m.Row]
		switch m.Op {
		case DeltaPut:
			vals := append([]string(nil), m.Values...)
			if exists {
				old := d.tuples[pos].Values
				for ri, r := range d.rs {
					if d.ruleDirtyOnUpdate(r, ri, old, vals) {
						dirty[ri] = true
					}
				}
				d.tuples[pos].Values = vals
				d.encRows[pos] = d.encode(vals)
			} else {
				for ri, r := range d.rs {
					if r.AppliesToValues(d.schema, vals) {
						dirty[ri] = true
					}
				}
				d.insertAt(m.Row, vals)
			}
			refuse[m.Row] = struct{}{}
		case DeltaDelete:
			old := d.tuples[pos].Values
			for ri, r := range d.rs {
				if r.AppliesToValues(d.schema, old) {
					dirty[ri] = true
				}
			}
			d.tuples = append(d.tuples[:pos], d.tuples[pos+1:]...)
			d.encRows = append(d.encRows[:pos], d.encRows[pos+1:]...)
			d.reindex()
			delete(d.fused, m.Row)
		}
	}

	// Rebuild the dirty blocks and mark every tuple whose version facts moved.
	ds := &DeltaStats{}
	for ri, isDirty := range dirty {
		if !isDirty {
			ds.ReusedBlocks++
			continue
		}
		ds.DirtyBlocks++
		db := d.blocks[ri]
		oldVers := db.vers
		if err := d.cleanBlock(ri, db); err != nil {
			// Learn errors are a function of the options alone, so a Load that
			// succeeded cannot fail here; surface it anyway rather than serve
			// a half-updated result.
			return nil, nil, err
		}
		for id, v := range db.vers {
			if ov, ok := oldVers[id]; !ok || ov != v {
				refuse[id] = struct{}{}
			}
		}
		for id := range oldVers {
			if _, ok := db.vers[id]; !ok {
				refuse[id] = struct{}{}
			}
		}
	}
	// Conflicted tuples read global candidate sets and domain sizes, both of
	// which any mutation may have shifted — always re-fuse them.
	for id, ts := range d.fused {
		if ts.res.conflicted != 0 {
			refuse[id] = struct{}{}
		}
	}
	d.plan.countDomains(d.encRows)

	ids := make([]int, 0, len(refuse))
	for id := range refuse {
		if _, live := d.rowPos[id]; live {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.fuseOne(id)
	}
	ds.RefusedTuples = len(ids)
	ds.ReusedTuples = len(d.tuples) - len(ids)
	ds.Wall = time.Since(t0)

	mDeltaApplies.Inc()
	mDeltaDirtyBlocks.Add(int64(ds.DirtyBlocks))
	mDeltaReusedBlocks.Add(int64(ds.ReusedBlocks))
	mDeltaRefusedTuples.Add(int64(ds.RefusedTuples))
	mDeltaReusedTuples.Add(int64(ds.ReusedTuples))
	mDeltaSeconds.ObserveDuration(ds.Wall)
	return d.assemble(), ds, nil
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
			_, exists = d.rowPos[m.Row]
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
	_, ok := d.rowPos[row]
	return ok
}

// Table materializes the current dirty table (ascending tuple-ID order, IDs
// preserved). The copy is independent of engine state.
func (d *DeltaCleaner) Table() *dataset.Table {
	tb := dataset.NewTable(d.schema)
	for _, t := range d.tuples {
		tb.Tuples = append(tb.Tuples, t.Clone())
	}
	return tb
}

// Weights returns the current post-stage-I piece summaries, concatenated in
// rule order — the weight vector repair attribution reads. Equal to the
// summaries a from-scratch Clean of the same table exposes on its index.
func (d *DeltaCleaner) Weights() []index.PieceSummary {
	var out []index.PieceSummary
	for _, db := range d.blocks {
		out = append(out, db.summaries...)
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

// reindex rebuilds the ID → position map after structural changes.
func (d *DeltaCleaner) reindex() {
	d.rowPos = make(map[int]int, len(d.tuples))
	for i, t := range d.tuples {
		d.rowPos[t.ID] = i
	}
}

// insertAt places a new tuple at its ascending-ID position.
func (d *DeltaCleaner) insertAt(row int, vals []string) {
	at := sort.Search(len(d.tuples), func(i int) bool { return d.tuples[i].ID > row })
	t := &dataset.Tuple{ID: row, Values: vals}
	d.tuples = append(d.tuples, nil)
	copy(d.tuples[at+1:], d.tuples[at:])
	d.tuples[at] = t
	d.encRows = append(d.encRows, nil)
	copy(d.encRows[at+1:], d.encRows[at:])
	d.encRows[at] = d.encode(vals)
	d.reindex()
}

// view is the engine table as a dataset.Table header (shared tuples, no copy).
func (d *DeltaCleaner) view() *dataset.Table {
	return &dataset.Table{Schema: d.schema, Tuples: d.tuples}
}

// cleanBlock (re)builds rule ri's block over the current table and runs the
// per-block stage-I pipeline on it, refreshing every cache the block feeds.
func (d *DeltaCleaner) cleanBlock(ri int, db *deltaBlock) error {
	enc := &dataset.Encoded{Dict: d.dict, Rows: d.encRows}
	b := index.BuildBlockFor(d.view(), enc, d.rs[ri])
	if db.memo == nil {
		db.memo = &agpMemo{}
	}
	ev := d.pool.Get()
	res := runBlock(ri, b, ev, d.opts, phaseAll, db.memo)
	d.pool.Put(ev)
	if res.err != nil {
		return res.err
	}
	// Only the instruments are wanted here: assemble recomposes the Stats
	// from every block's res, rebuilt or not.
	fold([]blockResult{res}, phaseAll, new(Stats))

	db.block, db.res = b, res
	db.summaries = b.PieceSummaries()
	fb := fusionBlockOf(b)
	d.plan.blocks[ri] = fb
	d.plan.candidates[ri] = buildBlockCands(fb, d.plan.posPerBlock[ri])
	db.vers = make(map[int]verInfo, len(fb.Versions))
	for id, p := range fb.Versions {
		db.vers[id] = verInfo{kid: p.KeyID(), weight: p.Weight}
	}
	return nil
}

// fuseOne re-runs fusion for one tuple against the current blocks and caches
// the outcome.
func (d *DeltaCleaner) fuseOne(id int) {
	pos := d.rowPos[id]
	t := d.tuples[pos].Clone()
	res := d.fuser.fuse(t, d.encRows[pos], nil)
	d.fused[id] = &tupleState{tuple: t, row: d.fuser.fusedRow(d.encRows[pos], res), res: res}
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

// assemble recomposes the full Result from the per-block and per-tuple
// caches: the repaired table in ascending-ID order, duplicate elimination,
// and the Stats a from-scratch run would report. Result.Index is nil — the
// engine is the index's keeper across mutations.
func (d *DeltaCleaner) assemble() *Result {
	st := Stats{Tuples: len(d.tuples), Blocks: len(d.blocks)}
	for _, db := range d.blocks {
		st.Groups += len(db.block.Groups)
		st.addBlock(&db.res)
	}
	// Results share the cached fused tuples (see tupleState): callers treat
	// Results as immutable — the serving layer re-serializes them verbatim —
	// so sharing is safe and saves a full table copy per version.
	repaired := &dataset.Table{Schema: d.schema, Tuples: make([]*dataset.Tuple, len(d.tuples))}
	rows := make([][]uint32, len(d.tuples))
	for i, t := range d.tuples {
		ts := d.fused[t.ID]
		st.FSCRCellChanges += ts.res.changes
		st.FusionFailures += ts.res.failed
		st.FusionTruncated += ts.res.truncated
		repaired.Tuples[i], rows[i] = ts.tuple, ts.row
	}
	res := &Result{Repaired: repaired, Stats: st}
	if d.opts.KeepDuplicates {
		res.Clean = &dataset.Table{Schema: d.schema, Tuples: repaired.Tuples}
		return res
	}
	// repaired is in ascending tuple-ID order, as a from-scratch pass sees it.
	res.Clean, res.Duplicates = dedupRows(repaired, rows, hashWords)
	for _, ids := range res.Duplicates {
		res.Stats.DuplicatesRemoved += len(ids) - 1
	}
	return res
}
