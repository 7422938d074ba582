package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
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
//     merge decisions moved. Every other group holds the same pieces. While
//     Σc holds, it is the collapsed group the last re-clean left, reused by
//     pointer: it would learn the same bits and pick the same winner. An
//     insert, a delete or a membership flip moves Σc, the Eq. 4 normaliser
//     of every prior in the block, and only the learning reads it: each
//     such group of several pieces is reweighed — learned again over the
//     counts its pick keeps, its winner re-picked from the pick's RSC
//     distances, and given new headers with the new weight — and redone
//     only when its winner moved.
//   - Each block keeps its AGP state (agpMemo) across its re-cleans: its
//     normal groups as search targets with their postings, and each
//     abnormal group's nearest-target decision. A re-clean classifies only
//     the touched groups again, re-scores sources only against the targets
//     that moved, and lists the groups whose merges moved. Besides it, a
//     block keeps per group its Newton steps and, for a group of several
//     pieces, its pick (counts, RSC distances and winner), so a reused
//     group still counts in LearnIterations and RSCRepairs.
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
//   - A conflicted tuple's search also reads its versions' weights, the
//     replacement candidates of the posting lists it scans, and the domain
//     sizes its prior divides by. Its fusion records those reads (the
//     posting keys and positions, fuser.reads) and a slack (fuser.slack):
//     how far, in log space, the decisions it took led their runners-up,
//     the best order the best one with another assignment and each
//     replacement pick the next compatible candidate. It is re-fused when a
//     version or candidate it read is new or gone, or a domain size it read
//     moved (readMoved). A weight that merely moved drifts: each Apply
//     takes twice the largest drift among what the tuple read, summed over
//     its blocks, out of its slack, which is kept across the Applies that
//     leave the tuple alone, and the tuple is re-fused once none is left.
//     A tie leaves no slack, except between weights of exactly 1, which
//     uncontested winners hold and no Σc moves (a weight that leaves 1
//     counts as a candidate gone). Each block's candidate index is patched
//     slot by slot as place moves its winners; when Σc moved, which moves
//     every contested weight, the weights are changed in place and the
//     index resorted, and it is rebuilt only when every group was redone.
//     The domain sizes come from counts per value ID, moved row by row.
//     TestDeltaSkippedFusionsMatchFresh fuses every tuple left alone afresh
//     after each step.
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
//     with the version before. The duplicate sets come from an index of
//     every live tuple by its fused row's hash (dupIndex), to which only the
//     rows that moved are filed again. A trail's rules and weights are
//     resolved when it is read.
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
	// The engine keeps the slice as the tuple's values and never writes it,
	// so the caller must not write it after Apply either; mutations may
	// share it with each other and with the loaded table.
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
	// steps and picks hold, per group of block, the Newton steps its
	// weights took and, for a group that held several pieces before RSC,
	// its pick (nil for one piece): what a group a re-clean reuses adds to
	// the block's LearnIterations and RSCRepairs, and what it is reweighed
	// by when Σc moves.
	steps []int32
	picks []pick
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
	// whole says the last re-clean redid every group (redo): adopt builds
	// the candidate index again, and every tuple that read the block is
	// re-fused. Otherwise redone names the groups it redid, totalMoved says
	// it moved Σc, and place records how far each candidate moved, as a
	// drift (the distance in log space between its old and new weight;
	// +Inf for a candidate new or gone, or one that left weight 1): drift
	// by slot, changed by posting key (attribute index << 32 | value ID,
	// ascending, distinct) for the candidates of the groups it redid and
	// every new or gone one, and spread as the largest drift of any other,
	// so a posting list's candidates moved by at most the larger of spread
	// and its key's drift, and the block's by at most widest.
	whole          bool
	redone         map[uint32]bool
	totalMoved     bool
	drift          []float64
	changed        []keyDrift
	spread, widest float64
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

// keyDrift is the largest drift (deltaBlock.drift) of a candidate filed
// under a posting key.
type keyDrift struct {
	key   uint64
	drift float64
}

// driftPad is added to every drift for the rounding of math.Log, whose
// error is below an ulp of a weight's log (|ln w| ≤ ln 1e6, minPieceWeight).
const driftPad = 1e-12

// weightDrift is the drift of a weight moved from was to now (bits
// differ): +Inf when it left 1, which the fusion searches take as fixed
// (blockCands.margin, fuser.settle).
func weightDrift(was, now float64) float64 {
	if was == 1 {
		return math.Inf(1)
	}
	return math.Abs(math.Log(now/was)) + driftPad
}

// blockMemo is what one block's re-clean leaves the next, and the arrays it
// learns its groups in, one group at a time.
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
	// and Apply: they keep per-value forms only, never a distance.
	evs []*distance.Evaluator

	// The current dirty table in ascending tuple-ID order, plus its encoded
	// companion and their IDs. The tuples are the caller's, kept as handed
	// to LoadVersion and ApplyVersion and never written: a PUT replaces a
	// tuple and its encoded row, never edits them, since versions share
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
	// and the fusion accounting.
	fusedTuples []*dataset.Tuple
	fusedRows   [][]uint32
	fuseRes     []fuseResult
	// reads holds, by tuple ID, each conflicted tuple's read set: what
	// besides its versions its last fusion read, and how far that may still
	// drift before the fusion could come out another way. A map, not a
	// slice parallel to the table: a few percent of the tuples are
	// conflicted.
	reads map[int]readSet
	// conflicted lists, ascending, the positions of the tuples whose last
	// fusion met a conflict, spliced as the table is; sums totals every
	// tuple's fusion accounting, moved as each tuple is fused or deleted.
	conflicted []int
	sums       fuseSums
	// refuse marks, per position, the tuples the Apply in progress re-fuses,
	// and refusing lists them: every mark is cleared before Apply returns,
	// and refusing then lists the positions the last Apply re-fused. kept
	// counts the conflicted tuples it left alone though something they read
	// drifted: their slack paid for it (readMoved).
	refuse   []bool
	refusing []int
	kept     int
	// domWas is the plan's domain sizes before the Apply in progress.
	domWas []int

	blocks []*deltaBlock
	// plan is the fusion context the blocks feed: adopt refreshes its
	// block entries, Load/Apply its domain sizes. fuser is the one search
	// engine every re-fusion reuses.
	plan  *fusionPlan
	fuser *fuser
	// scratchRow is what fuseOne builds a fused row in.
	scratchRow []uint32

	// cur is the last minted version, the parent of the next; touched holds
	// the keys of the chunks the next mint rebuilds, and dups files every
	// live tuple under its fused row (nil when duplicates are kept).
	cur     *Version
	touched []int
	dups    *dupIndex

	loaded bool
}

// readSet is what a conflicted tuple's last fusion read besides its
// versions: its read keys (readKey), ascending, and the slack the fusion
// left (fuser.slack), less twice the drift of what it read summed over the
// Applies that left it alone since.
type readSet struct {
	keys  []uint64
	slack float64
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
	d.fuser.record = true
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
// preserves across inserts and deletes). tb's tuples are retained, read-only,
// as Clean's are: the engine sorts a copy of tb.Tuples, never tb's own, and
// writes no tuple, so the caller must not write them either.
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
	d.tuples = slices.Clone(tb.Tuples)
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
	d.fusedTuples, d.fusedRows, d.fuseRes, d.reads = make([]*dataset.Tuple, n), make([][]uint32, n), make([]fuseResult, n), make(map[int]readSet)
	if !d.opts.KeepDuplicates {
		d.dups = newDupIndex(n)
	}

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
	for _, row := range d.encRows {
		d.plan.countRow(row, 1)
	}
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
	d.domWas = append(d.domWas[:0], d.plan.domainSize...)
	for _, m := range muts {
		d.touch(m.Row)
		pos, exists := d.posOf(m.Row)
		var from []uint32
		if exists {
			from = d.encRows[pos]
		}
		if exists {
			d.plan.countRow(from, -1)
		}
		if m.Op == DeltaDelete {
			d.edit(dirty, m.Row, from, nil)
			if d.dups != nil && d.fusedRows[pos] != nil { // nil: put in this batch
				d.dups.remove(m.Row, hashWords(d.fusedRows[pos]))
			}
			d.tuples = slices.Delete(d.tuples, pos, pos+1)
			d.encRows = slices.Delete(d.encRows, pos, pos+1)
			d.ids = slices.Delete(d.ids, pos, pos+1)
			d.fusedTuples = slices.Delete(d.fusedTuples, pos, pos+1)
			d.fusedRows = slices.Delete(d.fusedRows, pos, pos+1)
			d.sums.add(d.fuseRes[pos], -1)
			d.fuseRes = slices.Delete(d.fuseRes, pos, pos+1)
			d.conflicted = splice(d.conflicted, pos, -1)
			delete(d.reads, m.Row)
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
		row := d.encode(m.Values)
		d.plan.countRow(row, 1)
		d.edit(dirty, m.Row, from, row)
		if exists {
			d.tuples[pos] = &dataset.Tuple{ID: m.Row, Values: m.Values}
			d.encRows[pos] = row
			continue
		}
		d.tuples = insertAt(d.tuples, pos, &dataset.Tuple{ID: m.Row, Values: m.Values})
		d.encRows = insertAt(d.encRows, pos, row)
		d.ids = insertAt(d.ids, pos, m.Row)
		d.fusedTuples = insertAt(d.fusedTuples, pos, nil)
		d.fusedRows = insertAt(d.fusedRows, pos, nil)
		d.fuseRes = insertAt(d.fuseRes, pos, fuseResult{})
		d.conflicted = splice(d.conflicted, pos, 1)
		was := gone[m.Row] // nil for an ID new to the old winners
		for ri := range vers {
			var v uint32
			if was != nil {
				v = was[ri]
			}
			vers[ri] = insertAt(vers[ri], pos, v)
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
	// Mark the live tuples the batch put. No position is marked between
	// Applies, so the marks only need the table's length.
	if n := len(d.tuples); cap(d.refuse) < n {
		d.refuse = slices.Grow(d.refuse[:0], n+n/16)
	}
	d.refuse = d.refuse[:len(d.tuples)]
	d.refusing, d.kept = d.refusing[:0], 0
	for _, m := range muts {
		if pos, live := d.posOf(m.Row); live && m.Op == DeltaPut {
			d.mark(pos)
		}
	}
	// Mark every position whose version a re-cleaned block moved: another
	// piece, or a version on one side only. A weight alone cannot change a
	// tuple without a conflict (fusion reads weights only into the trace's
	// score). A conflicted tuple's search also read weights, candidates and
	// domain sizes: it is marked when one of those moved further than its
	// slack allows (readMoved).
	for _, ri := range edited {
		for _, i := range d.blocks[ri].moved {
			d.mark(i)
		}
	}
	for _, i := range d.conflicted {
		if !d.refuse[i] && d.readMoved(i, dirty) {
			d.mark(i)
		}
	}

	slices.Sort(d.refusing)
	for _, i := range d.refusing {
		d.fuseOne(i)
		d.refuse[i] = false
	}
	ds.RefusedTuples, ds.ReusedTuples = len(d.refusing), len(d.tuples)-len(d.refusing)
	ds.Wall = time.Since(t0)

	mDeltaDirtyBlocks.Add(int64(ds.DirtyBlocks))
	mDeltaReusedBlocks.Add(int64(ds.ReusedBlocks))
	mDeltaRefusedTuples.Add(int64(ds.RefusedTuples))
	mDeltaReusedTuples.Add(int64(ds.ReusedTuples))
	mDeltaSeconds.ObserveDuration(ds.Wall)
	return d.mint(), ds, nil
}

// mark marks the tuple at position i for re-fusion.
func (d *DeltaCleaner) mark(i int) {
	if !d.refuse[i] {
		d.refuse[i] = true
		d.refusing = append(d.refusing, i)
	}
}

// splice moves the ascending positions ps as the table moves when a tuple
// is inserted at position pos (by 1) or deleted from it (by −1): a deleted
// tuple's position leaves ps.
func splice(ps []int, pos, by int) []int {
	i, hit := slices.BinarySearch(ps, pos)
	if hit && by < 0 {
		ps = slices.Delete(ps, i, i+1)
	}
	for j := i; j < len(ps); j++ {
		ps[j] += by
	}
	return ps
}

// fuseSums totals the fusion accounting of every tuple of the table.
type fuseSums struct{ changes, failed, truncated int }

// add adds r's accounting to the totals, times sign.
func (s *fuseSums) add(r fuseResult, sign int) {
	s.changes += sign * int(r.changes)
	s.failed += sign * int(r.failed)
	s.truncated += sign * int(r.truncated)
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
// decides on the kept block, which it does not write (agpMemo.decide). A
// group after AGP — a group that stays, with the sources merged into it —
// is redone when a group it holds now, or held at the last re-clean, was
// touched since (index.BlockEditor.Touched), or when one of its sources'
// decisions moved (redo). A redone group is copied out of the kept block,
// merged, learned with the block's Σc, given its RSC winner and collapsed.
// Every other group holds the pieces, with the same counts, that it held
// at the last re-clean. While Σc holds, it is the collapsed group the last
// re-clean left, which would learn the same bits and pick the same winner.
// When Σc moved (an insert, a delete, a rule's membership flip), each such
// group of several pieces is reweighed instead (reweigh): learned again
// over the counts its pick keeps, with its winner re-picked from the
// pick's distances, and redone only if the winner moved; every group kept
// gets new headers over its lists. The groups keep
// the kept block's order, less the merged sources, as agp over a copy of
// the kept block leaves them.
//
// Load, and a re-clean that meets a promotion, redo every group: the same
// code, with nothing reused.
func (d *DeltaCleaner) reclean(ri int, c crew) (r blockResult) {
	db := d.blocks[ri]
	kept := db.kept.Block()
	start := time.Now()
	t := start
	lap := func() time.Duration {
		now := time.Now()
		dt := now.Sub(t)
		t = now
		return dt
	}
	p := db.memo.agp.decide(ri, db.kept, d.opts.Tau, c, d.opts.MergeCapRatio)
	r.abnormal, r.abnormalPieces, r.promotions, r.agpPairs, r.agpFullScans = p.abnormal, p.abnormalPieces, p.promotions, p.pairs, p.fullScans
	db.kept.ClearTouched()
	redo := db.redo(&p)
	r.agp = lap()
	in := &db.memo.inputs
	var rw []reweighed
	if redo != nil && p.total != db.total {
		if rw, r.err = db.reweigh(kept, &p, redo, in); r.err != nil {
			return r
		}
	}
	r.learn = lap()
	db.whole, db.redone, db.totalMoved = redo == nil, redo, p.total != db.total
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
	r.agp += lap()
	if _, r.err = learnGroups(work.Groups, in, p.total); r.err != nil {
		return r
	}
	r.learn += lap()
	pre := work.Groups // RSC collapses work: these keep their pieces
	nn, picks := newPicks(pre)
	rsc(ri, work, c, nil, nn)
	keepPicks(pre, work.Groups, picks)
	r.recollapsed = len(work.Groups)
	r.regrouped = r.recollapsed

	// Lay the block out: redone groups as collapsed just now, reweighed
	// groups under their new headers, the others as the last re-clean left
	// them.
	b := &index.Block{Rule: kept.Rule, Groups: make([]*index.Group, 0, n)}
	steps, held := make([]int32, 0, n), make([]pick, 0, n)
	old := db.lookup()
	k = 0
	contested := 0
	for i, g := range kept.Groups {
		switch {
		case !p.stays(i):
			continue
		case redone(g):
			pk := pick(nil)
			if len(pre[k].Pieces) > 1 {
				pk = picks[contested]
				contested++
			}
			b.Groups, steps, held = append(b.Groups, work.Groups[k]), append(steps, int32(in.steps[k])), append(held, pk)
			k++
		case len(rw) > 0 && rw[0].kid == g.KeyID():
			pk := db.picks[rw[0].o]
			if pk != nil {
				r.regrouped++
			}
			b.Groups, steps, held = append(b.Groups, rw[0].g), append(steps, rw[0].steps), append(held, pk)
			rw = rw[1:]
		default:
			o := old(g.KeyID())
			b.Groups, steps, held = append(b.Groups, db.block.Groups[o]), append(steps, db.steps[o]), append(held, db.picks[o])
		}
	}
	for i := range steps {
		r.learnIters = max(r.learnIters, int(steps[i]))
		if held[i] != nil {
			r.repairs += held[i].width() - 1
		}
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
	db.block, db.steps, db.picks, db.total = b, steps, held, p.total
	r.rsc = lap()
	mBlockSeconds.ObserveDuration(t.Sub(start))
	return r
}

// redo returns the KeyIDs of the groups after AGP that the re-clean must
// redo, or nil when it redoes every group: at Load, and around a
// promotion, after which AGP keeps no decision (agpPlan.whole). A group
// after AGP is named by the group that stays; a merged source belongs to
// its target's. Every group a move touched since is marked in the group it
// belonged to then and in the one it belongs to now, and so is every
// source whose decision moved: merged or not, and into which target
// (agpPlan.reached).
func (db *deltaBlock) redo(p *agpPlan) map[uint32]bool {
	if db.block == nil || p.whole {
		return nil
	}
	redo := make(map[uint32]bool, len(p.reached))
	for _, k := range p.reached {
		redo[k] = true
	}
	return redo
}

// A pick is what a contested group's RSC leaves the re-cleans after it, in
// one slice: the index of the piece that won, then each piece's
// nearest-neighbour distance, then each piece's count, pieces in learn
// order. A count is negative where its piece, not the winner, would win a
// score tie with the winner (betterTie). None of it reads a weight, so
// while the group holds the same pieces it learns its weights with any Σc,
// and re-picks its winner as the argmax of count·NN·p, from its pick alone.
type pick []float64

// width is how many pieces the group held.
func (pk pick) width() int { return len(pk) / 2 }

// win is the index of the piece that won.
func (pk pick) win() int { return int(pk[0]) }

// count is piece j's count.
func (pk pick) count(j int) float64 { return math.Abs(pk[1+pk.width()+j]) }

// holds reports whether the pick's winner still wins under the
// probabilities probs, in learn order: as rscWinner scores each piece, no
// other scores higher, or as high and winning the tie.
func (pk pick) holds(probs []float64) bool {
	w, win := pk.width(), pk.win()
	nn, counts := pk[1:1+w], pk[1+w:]
	score := func(j int) float64 { return math.Abs(counts[j]) * nn[j] * max(probs[j], minPieceWeight) }
	top := score(win)
	for j, c := range counts {
		if s := score(j); j != win && (s > top || s == top && c < 0) {
			return false
		}
	}
	return true
}

// newPicks lays out, for the contested ones among the groups, their picks
// in group order, with the counts filled in, in one slab, and RSC's
// distance rows (nn, by group, nil for an uncontested one) inside them.
func newPicks(gs []*index.Group) ([][]float64, []pick) {
	ng, np := 0, 0
	for _, g := range gs {
		if len(g.Pieces) > 1 {
			ng++
			np += len(g.Pieces)
		}
	}
	if ng == 0 {
		return nil, nil
	}
	nn := make([][]float64, len(gs))
	vals, picks := make([]float64, ng+2*np), make([]pick, ng)
	k := 0
	for i, g := range gs {
		if len(g.Pieces) < 2 {
			continue
		}
		w := len(g.Pieces)
		pk := pick(vals[: 1+2*w : 1+2*w])
		vals = vals[1+2*w:]
		for j, p := range g.Pieces {
			pk[1+w+j] = float64(p.Count())
		}
		nn[i], picks[k] = pk[1:1+w], pk
		k++
	}
	return nn, picks
}

// keepPicks completes the picks of the contested groups among pre, as RSC
// found them, with the winners RSC kept in won.
func keepPicks(pre, won []*index.Group, picks []pick) {
	k := 0
	for i, g := range pre {
		if len(g.Pieces) < 2 {
			continue
		}
		pk, kid := picks[k], won[i].Pieces[0].KeyID()
		k++
		win := slices.IndexFunc(g.Pieces, func(p *index.Piece) bool { return p.KeyID() == kid })
		pk[0] = float64(win)
		for j, p := range g.Pieces {
			if j != win && !betterTie(g.Pieces[win], p) {
				pk[1+len(g.Pieces)+j] = -pk[1+len(g.Pieces)+j]
			}
		}
	}
}

// reweighed is a group after AGP that a re-clean kept but gave new
// headers: its KeyID, its index in the block the last re-clean left, its
// new headers and the Newton steps its weights took.
type reweighed struct {
	kid   uint32
	o     int
	g     *index.Group
	steps int32
}

// reweigh learns again, with the block's new Σc, every group after AGP of
// several pieces that the re-clean does not redo, over the counts its pick
// keeps, one group at a time. One whose winner moved (pick.holds) is added
// to redo. Every other group the re-clean does not redo gets new headers
// over its lists (index.Reweigh): a contested one with its winner's new
// weight, one of a single piece with its weight, which Σc does not move.
// No piece the last re-clean left is written, and none of its headers
// stays referenced, so the slabs it laid them out in hold only the lists
// still in use. Returns the groups given new headers, in the kept block's
// order.
func (db *deltaBlock) reweigh(kept *index.Block, p *agpPlan, redo map[uint32]bool, in *learnInputs) ([]reweighed, error) {
	old := db.lookup()
	n := len(kept.Groups) - len(p.merges) // groups after AGP
	held := make([]reweighed, 0, n)
	gs, ws := make([]*index.Group, 0, n), make([]float64, 0, n)
	for i, g := range kept.Groups {
		if !p.stays(i) || redo[g.KeyID()] {
			continue
		}
		e := reweighed{kid: g.KeyID(), o: old(g.KeyID())}
		og := db.block.Groups[e.o]
		w := og.Pieces[0].Weight
		if pk := db.picks[e.o]; pk != nil {
			in.counts = in.counts[:0]
			for j := range pk.width() {
				in.counts = append(in.counts, pk.count(j))
			}
			steps, err := in.learn(p.total)
			if err != nil {
				return nil, err
			}
			if !pk.holds(in.probs) {
				redo[e.kid] = true
				continue
			}
			e.steps, w = int32(steps), max(in.probs[pk.win()], minPieceWeight)
		}
		held = append(held, e)
		gs, ws = append(gs, og), append(ws, w)
	}
	for k, g := range index.Reweigh(gs, ws) {
		held[k].g = g
	}
	return held, nil
}

// lookup returns a function that finds the group with the given KeyID in
// the block the last re-clean left, by its index. A re-clean asks in the
// order of the kept block, which the block the last re-clean left shares,
// so each group lies past the last one found, beyond only groups redone or
// gone since, and walking forward passes each group once. A walk that runs
// off the end finds the order moved: from then on it indexes the block by
// KeyID.
func (db *deltaBlock) lookup() func(kid uint32) int {
	next := 0
	var at map[uint32]int
	return func(kid uint32) int {
		gs := db.block.Groups
		if at == nil {
			for i := next; i < len(gs); i++ {
				if gs[i].KeyID() == kid {
					next = i + 1
					return i
				}
			}
			at = make(map[uint32]int, len(gs))
			for i, g := range gs {
				at[g.KeyID()] = i
			}
		}
		i, ok := at[kid]
		if !ok {
			panic(fmt.Sprintf("core: delta: group %d of rule %s is reused but was not cleaned", kid, db.rule.ID))
		}
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
// side by side. A re-clean that redid every group (db.whole) builds the
// block's candidate index again; any other patches it where place moves a
// slot.
func (d *DeltaCleaner) adopt(ri int, res blockResult) {
	db := d.blocks[ri]
	b := db.block
	db.res = res
	fb := d.plan.blocks[ri]
	var bc *blockCands
	if !db.whole {
		bc = d.plan.candidates[ri]
	}
	d.place(db, fb, d.plan.versionOf[ri], b, bc)
	db.redone = nil // read by place alone
	fb.Candidates = fb.Pieces
	if bc == nil {
		bc = buildBlockCands(fb, d.plan.posPerBlock[ri])
		bc.dict = d.dict // a block without pieces names no dictionary
		d.plan.candidates[ri] = bc
	}
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
//
// As a candidate, a winner has changed when it is new, gone, or kept its
// slot at another weight: place records how far each moved (db.drift,
// db.changed, db.spread, db.widest) and files every slot it moves in bc,
// the block's candidate index, unless bc is nil. A reweighted slot is
// taken out and filed again, except when Σc moved, which moves every
// contested winner: then the weights are changed in place and the index
// resorted, before any new winner is filed.
func (d *DeltaCleaner) place(db *deltaBlock, fb *FusionBlock, at []uint32, b *index.Block, bc *blockCands) {
	posOf := d.walkPos()
	moved := db.moved[:0]
	var free []uint32
	slots := fb.Pieces
	live := make([]bool, len(slots), len(slots)+len(b.Groups))
	db.drift = slices.Grow(db.drift[:0], len(slots)+len(b.Groups))[:len(slots)]
	clear(db.drift)
	db.changed, db.spread = db.changed[:0], 0
	changed := func(ids []uint32, drift float64) {
		for i, v := range ids {
			db.changed = append(db.changed, keyDrift{uint64(i)<<32 | uint64(v), drift})
		}
	}
	var fresh []*index.Piece
	var gained []int   // positions, then the slot they take
	var resort []int32 // slots reweighted in place
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
		if bc != nil {
			if math.Float64bits(slots[s].Weight) != math.Float64bits(w.Weight) {
				dr := weightDrift(slots[s].Weight, w.Weight)
				db.drift[s] = dr
				if db.redone[g.KeyID()] || math.IsInf(dr, 1) {
					changed(w.ValueIDs(), dr)
				} else {
					db.spread = max(db.spread, dr)
				}
				if db.totalMoved {
					resort = append(resort, int32(s))
				} else {
					bc.remove(int32(s))
					bc.put(int32(s), candOf(w))
				}
			} else {
				// The same candidate, perhaps laid out anew: file the new
				// layout's IDs so the old layout can be collected.
				bc.ents[s].ids = w.ValueIDs()
			}
		}
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
			if bc != nil {
				bc.remove(int32(s))
				changed(p.ValueIDs(), math.Inf(1))
			}
			free = append(free, uint32(s))
		}
	}
	if len(resort) > 0 {
		for _, s := range resort {
			bc.ents[s] = candOf(slots[s])
		}
		bc.resort()
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
			db.drift = append(db.drift, 0)
		}
		if bc != nil {
			bc.put(int32(s), candOf(w))
			changed(w.ValueIDs(), math.Inf(1))
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
			db.drift[s] = db.drift[last]
			if bc != nil {
				e := bc.ents[last]
				bc.remove(int32(last))
				bc.put(int32(s), e)
			}
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
	if bc != nil {
		clear(bc.ents[len(slots):]) // unfiled: hold no layout alive
		bc.ents = bc.ents[:len(slots)]
	}
	db.drift = db.drift[:len(slots)]
	slices.SortFunc(db.changed, func(a, b keyDrift) int { return cmp.Compare(a.key, b.key) })
	keys, widest := db.changed[:0], db.spread
	for _, e := range db.changed {
		widest = max(widest, e.drift)
		if n := len(keys); n > 0 && keys[n-1].key == e.key {
			keys[n-1].drift = max(keys[n-1].drift, e.drift)
		} else {
			keys = append(keys, e)
		}
	}
	db.changed, db.widest = keys, widest
	fb.Pieces = slots
	db.moved = moved
}

// driftAt is how far the candidates filed under posting key k (attribute
// index << 32 | value ID; attribute anyAttr: every candidate) moved at the
// block's last re-clean, at most.
func (db *deltaBlock) driftAt(k uint64) float64 {
	if int(k>>32) == anyAttr {
		return db.widest
	}
	lo, hi := 0, len(db.changed)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); db.changed[m].key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(db.changed) && db.changed[lo].key == k {
		return max(db.spread, db.changed[lo].drift)
	}
	return db.spread
}

// readMoved reports whether the Apply in progress, which re-cleaned the
// blocks marked dirty, may have changed what the last fusion of the
// conflicted tuple at position i found. It has when a block every group of
// which was redone holds one of its versions or a posting list one of its
// replacement searches scanned, or when a domain size its prior read moved.
// Else what it read moved by some drift: in each block, the largest drift
// of its version and of the candidates on the lists it scanned. A version
// or candidate new or gone drifts by +Inf. Each fusion score is a product
// of one weight per block, so the drifts summed over the blocks bound how
// far a score moved, and twice the sum how far a decision's lead shrank:
// the tuple's slack pays for it, and the search would decide alike while
// slack is left.
func (d *DeltaCleaner) readMoved(i int, dirty []bool) bool {
	id := d.ids[i]
	rs := d.reads[id]
	keys := rs.keys // ascending: by block, the domain reads last
	sum := 0.0
	for bi, db := range d.blocks {
		n := 0
		for n < len(keys) && int(keys[n]>>48) == bi {
			n++
		}
		read := keys[:n]
		keys = keys[n:]
		s := d.plan.versionOf[bi][i]
		switch {
		case !dirty[bi], s == 0 && len(read) == 0:
			continue
		case db.whole:
			return true
		}
		x := 0.0
		if s != 0 {
			x = db.drift[s-1]
		}
		for _, k := range read {
			x = max(x, db.driftAt(k&(1<<48-1)))
		}
		sum += x
	}
	for _, k := range keys {
		if attr := int(k >> 32 & 0xFFFF); d.plan.domainSize[attr] != d.domWas[attr] {
			return true
		}
	}
	if sum == 0 {
		return false
	}
	if rs.slack -= 2 * sum; !(rs.slack > 0) {
		return true
	}
	d.reads[id] = rs
	d.kept++
	return false
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
	was := d.fuseRes[i]
	d.sums.add(was, -1)
	d.sums.add(res, 1)
	if at, in := slices.BinarySearch(d.conflicted, i); in != (res.conflicted != 0) {
		if in {
			d.conflicted = slices.Delete(d.conflicted, at, at+1)
		} else {
			d.conflicted = slices.Insert(d.conflicted, at, i)
		}
	}
	d.fuseRes[i] = res
	if res.conflicted != 0 {
		rs := d.reads[t.ID]
		d.reads[t.ID] = readSet{keys: append(rs.keys[:0], d.fuser.readKeys()...), slack: d.fuser.slack}
	} else {
		delete(d.reads, t.ID)
	}
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
	if d.dups != nil {
		if was := d.fusedRows[i]; was != nil {
			d.dups.remove(t.ID, hashWords(was))
		}
		d.dups.add(t.ID, hashWords(row))
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
