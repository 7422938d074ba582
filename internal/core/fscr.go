package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// FSCR runs on the dictionary-encoded view of the data: assignments are
// schema-indexed []uint32 slices (one value ID per attribute position, with
// a sentinel for "not pinned"), versions carry their pieces' interned IDs,
// and candidate compatibility checks compare fixed-width integers. Strings
// reappear only when a winning fusion is written back into the repaired
// table and when trace entries are recorded.

// unsetID marks an attribute position the fusion has not pinned yet. Value
// IDs are dense from 0, so the all-ones sentinel can never collide.
const unsetID = ^uint32(0)

// version is one tuple's cleaned piece from one block (a data version).
type version struct {
	blockIdx int
	comp     int // the block's fusion component (fusionPlan.compOf)
	rule     *rules.Rule
	pos      []int // schema positions of the rule's attrs (reason+result)
	ids      []uint32
	kid      uint32 // the piece's fixed-width identity (replacement exclusion)
	weight   float64
}

// assignment is a partial tuple: one value ID per schema position, unsetID
// where nothing is pinned.
type assignment []uint32

func newAssignment(width int) assignment {
	a := make(assignment, width)
	for i := range a {
		a[i] = unsetID
	}
	return a
}

// FusionBlock is one block's stage-I output as consumed by FSCR: the
// block's cleaned pieces, each naming the tuples it is the version of, plus
// the candidate pieces used for conflict replacement. The distributed gather
// step builds these from the union of all workers' blocks to run a global
// conflict resolution. All pieces of all blocks must share one dictionary.
type FusionBlock struct {
	Rule  *rules.Rule
	Attrs []string
	// Pieces hold the block's versions: a tuple's version is the piece whose
	// TupleIDs name it, and no tuple is named twice.
	Pieces []*index.Piece
	// Candidates are the pieces conflict replacement draws from, one per
	// identity. A stand-alone clean's are its Pieces; the gather's drop the
	// repeats of a piece several workers hold.
	Candidates []*index.Piece
}

// fusionBlockOf is one cleaned block's stage-I output as FSCR input.
func fusionBlockOf(b *index.Block) *FusionBlock {
	fb := &FusionBlock{Rule: b.Rule, Attrs: b.Rule.Attrs(), Pieces: b.Pieces()}
	fb.Candidates = fb.Pieces
	return fb
}

// FusionBlocksFromIndex exposes a cleaned index's stage-I output as FSCR
// inputs, one FusionBlock per block.
func FusionBlocksFromIndex(ix *index.Index) []*FusionBlock {
	blocks := make([]*FusionBlock, len(ix.Blocks))
	for bi, b := range ix.Blocks {
		blocks[bi] = fusionBlockOf(b)
	}
	return blocks
}

// fusionDict returns the shared dictionary of the blocks' pieces, or nil
// when no block holds any piece.
func fusionDict(blocks []*FusionBlock) *intern.Dict {
	for _, fb := range blocks {
		if len(fb.Candidates) > 0 {
			return fb.Candidates[0].Dict()
		}
	}
	return nil
}

// candEntry caches one replacement candidate: its value IDs, weight, and
// identities, precomputed so conflict checks compare integers only.
type candEntry struct {
	ids    []uint32
	weight float64
	kid    uint32
}

// blockCands pre-indexes a block's candidates for the replacement search.
// Each candidate is filed under its index in the block's Candidates (for the
// delta engine, its fusion slot): order lists them best first — weight
// descending, then CompareKeys over their value IDs, a total order, since
// the candidates' identities differ — and byVal[i][id] lists, in the same
// order, the candidates whose i-th attribute carries value ID id, so a
// conflicted merge scans only the candidates matching one pinned value
// instead of the whole block. The delta engine patches the index a slot at
// a time (remove, put) instead of building it again; when Σc moved, which
// moves every contested weight, it changes the weights in place and
// resorts.
type blockCands struct {
	pos   []int // schema positions of the block's attrs
	dict  *intern.Dict
	ents  []candEntry // by slot
	order []int32     // slots, best first
	byVal []map[uint32][]int32
	rank  []int32 // resort's scratch: each slot's index in order
}

func buildBlockCands(fb *FusionBlock, pos []int) *blockCands {
	bc := &blockCands{pos: pos, ents: make([]candEntry, len(fb.Candidates)), order: make([]int32, len(fb.Candidates))}
	for s, p := range fb.Candidates {
		bc.ents[s] = candOf(p)
		bc.order[s] = int32(s)
	}
	if len(fb.Candidates) > 0 {
		bc.dict = fb.Candidates[0].Dict()
	}
	slices.SortFunc(bc.order, func(a, b int32) int { return bc.compare(&bc.ents[a], &bc.ents[b]) })
	bc.byVal = make([]map[uint32][]int32, len(bc.pos))
	for i := range bc.pos {
		m := make(map[uint32][]int32)
		for _, s := range bc.order {
			if ids := bc.ents[s].ids; i < len(ids) {
				m[ids[i]] = append(m[ids[i]], s)
			}
		}
		bc.byVal[i] = m
	}
	return bc
}

func candOf(p *index.Piece) candEntry {
	return candEntry{ids: p.ValueIDs(), weight: p.Weight, kid: p.KeyID()}
}

// compare orders candidates best first: by weight, descending, then by
// display key, compared without decoding.
func (bc *blockCands) compare(a, b *candEntry) int {
	if a.weight != b.weight {
		if a.weight > b.weight {
			return -1
		}
		return 1
	}
	return index.CompareKeys(bc.dict, a.ids, b.ids)
}

// where is the index in list, a best-first slot list, at which e is or
// would be filed.
func (bc *blockCands) where(list []int32, e *candEntry) int {
	at, _ := slices.BinarySearchFunc(list, e, func(s int32, e *candEntry) int { return bc.compare(&bc.ents[s], e) })
	return at
}

// remove takes slot s out of the order and its postings. ents[s] must still
// hold the entry it was filed with.
func (bc *blockCands) remove(s int32) {
	e := &bc.ents[s]
	at := bc.where(bc.order, e)
	bc.order = slices.Delete(bc.order, at, at+1)
	for i, v := range e.ids {
		m := bc.byVal[i]
		at := bc.where(m[v], e)
		if l := slices.Delete(m[v], at, at+1); len(l) == 0 {
			delete(m, v)
		} else {
			m[v] = l
		}
	}
}

// put files e under slot s, which is unfiled (removed, or one past the last
// slot).
func (bc *blockCands) put(s int32, e candEntry) {
	if int(s) == len(bc.ents) {
		bc.ents = append(bc.ents, e)
	} else {
		bc.ents[s] = e
	}
	bc.order = slices.Insert(bc.order, bc.where(bc.order, &e), s)
	for i, v := range e.ids {
		l := bc.byVal[i][v]
		bc.byVal[i][v] = slices.Insert(l, bc.where(l, &e), s)
	}
}

// find returns the best candidate compatible with merged, excluding the
// candidate identified by excludeKid, and the attribute whose posting list
// it scanned (-1: the whole block, when merged pins none of the block's
// attributes). Compatibility: the candidate agrees with merged on every
// attribute of this block merged pins, so every compatible candidate is on
// the list scanned, and the answer depends on that list's candidates only.
func (bc *blockCands) find(merged assignment, excludeKid uint32) (candEntry, bool, int) {
	list, k, on := bc.locate(merged, excludeKid)
	if k == len(list) {
		return candEntry{}, false, on
	}
	return bc.ents[list[k]], true, on
}

// locate is find by position: the posting list it scans, the index in it
// of the best compatible candidate (len(list): none) and the list's
// attribute.
func (bc *blockCands) locate(merged assignment, excludeKid uint32) (list []int32, k, on int) {
	// Choose the shortest posting list among pinned attributes.
	on = -1
	for i, p := range bc.pos {
		v := merged[p]
		if v == unsetID {
			continue
		}
		l := bc.byVal[i][v]
		if on == -1 || len(l) < len(list) {
			on = i
			list = l
		}
	}
	if on < 0 {
		list = bc.order
	}
	return list, bc.next(list, 0, merged, excludeKid), on
}

// next is the index in list, from k on, of the first candidate compatible
// with merged other than excludeKid, or len(list).
func (bc *blockCands) next(list []int32, k int, merged assignment, excludeKid uint32) int {
	for ; k < len(list); k++ {
		c := &bc.ents[list[k]]
		if c.kid == excludeKid {
			continue
		}
		ok := true
		for i, p := range bc.pos {
			if v := merged[p]; v != unsetID && c.ids[i] != v {
				ok = false
				break
			}
		}
		if ok {
			return k
		}
	}
	return k
}

// margin is how far ahead list[k], the candidate a replacement search
// picked, is of the next compatible candidate that could overtake it: the
// ratio of their weights, +Inf when there is none, 1 for a tie. A pick of
// weight exactly 1 passes over the compatible candidates of weight 1 after
// it: 1 is an uncontested winner's weight, which no Σc moves (one that
// leaves it counts as a candidate gone, DeltaCleaner.place), and
// candidates of equal weight keep their key order.
func (bc *blockCands) margin(list []int32, k int, merged assignment, excludeKid uint32) float64 {
	w := bc.ents[list[k]].weight
	for {
		if k = bc.next(list, k+1, merged, excludeKid); k == len(list) {
			return math.Inf(1)
		}
		if next := bc.ents[list[k]].weight; w != 1 || next != 1 {
			return w / next
		}
	}
}

// resort puts order and every posting list back in best-first order after
// the weights of some filed entries were changed in place. The lists are
// sorted by each slot's rank in order, an integer compare.
func (bc *blockCands) resort() {
	slices.SortFunc(bc.order, func(a, b int32) int { return bc.compare(&bc.ents[a], &bc.ents[b]) })
	bc.rank = slices.Grow(bc.rank[:0], len(bc.ents))[:len(bc.ents)]
	for r, s := range bc.order {
		bc.rank[s] = int32(r)
	}
	byRank := func(a, b int32) int { return cmp.Compare(bc.rank[a], bc.rank[b]) }
	for _, m := range bc.byVal {
		for _, l := range m {
			if !slices.IsSortedFunc(l, byRank) {
				slices.SortFunc(l, byRank)
			}
		}
	}
}

// maxComponentVersions bounds the versions one conflicted search can order:
// the consumed set is one bit per version in a uint64 mask.
const maxComponentVersions = 64

// maxFusionStates caps the FSCR permutation search per conflicted component
// of a tuple: rules that share no attribute (directly or through other
// rules) cannot conflict, so a tuple's versions are fused one such component
// at a time and each search gets the full cap. The recursion of Alg. 2 is
// O(m!·m); the memoized search never revisits a (consumed-set, assignment)
// state and aborts at the cap, falling back to the best fusion found so far
// — Stats.FusionTruncated counts the tuples this happened to.
const maxFusionStates = 4096

// FusionWidthError reports a rule set FSCR cannot search: more than
// maxComponentVersions rules are linked through shared attributes, so one
// tuple's conflicted component could outgrow the search's version mask.
type FusionWidthError struct {
	Rules int // rules in the widest attribute-connected component
}

func (e *FusionWidthError) Error() string {
	return fmt.Sprintf("core: fscr: %d rules are linked through shared attributes; the fusion search orders at most %d versions per component",
		e.Rules, maxComponentVersions)
}

// CheckFusionWidth returns a *FusionWidthError when rs links more rules into
// one attribute-connected component than the fusion search can order. Clean,
// NewDeltaCleaner and the distributed entry points call it before any work;
// attributes the schema lacks are left for rule validation to report.
func CheckFusionWidth(schema *dataset.Schema, rs []*rules.Rule) error {
	posPerRule := make([][]int, len(rs))
	for ri, r := range rs {
		for _, a := range r.Attrs() {
			if p, ok := schema.Index(a); ok {
				posPerRule[ri] = append(posPerRule[ri], p)
			}
		}
	}
	compOf, compAttrs := fusionComponents(posPerRule, schema.Len())
	sizes := make([]int, len(compAttrs))
	widest := 0
	for _, c := range compOf {
		sizes[c]++
		widest = max(widest, sizes[c])
	}
	if widest > maxComponentVersions {
		return &FusionWidthError{Rules: widest}
	}
	return nil
}

// fusionComponents partitions blocks into connected components of the
// "shares a schema position" relation. Versions from different components
// pin disjoint attributes, so they can neither conflict nor constrain each
// other's replacement candidates, and the fusion score factorises over
// components. compOf maps block → component (numbered by first block);
// compAttrs lists each component's schema positions in ascending order.
func fusionComponents(posPerBlock [][]int, width int) (compOf []int, compAttrs [][]int) {
	parent := make([]int, len(posPerBlock))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := make([]int, width) // first block seen on each position, +1
	for bi, pos := range posPerBlock {
		for _, p := range pos {
			if owner[p] == 0 {
				owner[p] = bi + 1
				continue
			}
			// Root at the smaller index so components number by first block.
			a, b := find(owner[p]-1), find(bi)
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	compOf = make([]int, len(posPerBlock))
	for bi := range posPerBlock {
		root := find(bi)
		if root == bi {
			compOf[bi] = len(compAttrs)
			compAttrs = append(compAttrs, nil)
		} else {
			compOf[bi] = compOf[root]
		}
	}
	for p, o := range owner {
		if o != 0 {
			c := compOf[o-1]
			compAttrs[c] = append(compAttrs[c], p)
		}
	}
	return compOf, compAttrs
}

// fusionPlan is what every fusion of one run reads and none writes: the
// blocks with their schema positions, replacement candidates and version
// indexes, the observation model's domain sizes, and the component
// partition. One plan serves all of a run's fusers (DeltaCleaner: all of its
// re-fusions, with blocks, candidates, version indexes and domainSize
// refreshed in place between Applies).
type fusionPlan struct {
	dict        *intern.Dict
	schema      *dataset.Schema
	blocks      []*FusionBlock
	posPerBlock [][]int
	candidates  []*blockCands
	// versionOf[bi][i] is 1 + the index in blocks[bi].Pieces of the version
	// of the tuple at table position i, or 0 when block bi has none: a flat
	// index per block, sized by the table, never by its tuple IDs.
	versionOf [][]uint32
	// domainSize holds distinct-value counts per schema position any block
	// touches, for the observation model: a replacement error lands on one
	// specific value out of |domain|−1 alternatives, so changing a
	// large-domain cell (e.g. Model) explains the observed tuple less well
	// than changing a small-domain cell (e.g. Make) — exactly the asymmetry
	// that disambiguates which side of a version conflict was corrupted. A
	// whole-table run counts it once (countDomains); the delta engine keeps
	// counts, the live rows per value ID at each such position, and moves
	// them row by row (countRow), so a position's size moves only when a
	// value's count crosses zero. penalty is the per-changed-cell factor
	// ε/(1−ε) of the minimality prior.
	domainSize []int
	counts     []map[uint32]int32
	penalty    float64
	maxStates  int
	compOf     []int
	compAttrs  [][]int
}

func newFusionPlan(dict *intern.Dict, schema *dataset.Schema, posPerBlock [][]int, opts Options) *fusionPlan {
	pl := &fusionPlan{
		dict:        dict,
		schema:      schema,
		blocks:      make([]*FusionBlock, len(posPerBlock)),
		posPerBlock: posPerBlock,
		candidates:  make([]*blockCands, len(posPerBlock)),
		versionOf:   make([][]uint32, len(posPerBlock)),
		domainSize:  make([]int, schema.Len()),
		penalty:     opts.changePenalty(),
		maxStates:   maxFusionStates,
	}
	pl.compOf, pl.compAttrs = fusionComponents(posPerBlock, schema.Len())
	return pl
}

// countDomains refreshes domainSize from the encoded rows, over the
// positions any block touches. Distinct IDs ≡ distinct values, and IDs are
// dense below dict.Len(), so a position's count is one stamp per cell:
// seen[id] == gen marks value id as counted at the current position.
func (pl *fusionPlan) countDomains(rows [][]uint32) {
	seen := make([]uint32, pl.dict.Len())
	var gen uint32
	for _, attrs := range pl.compAttrs {
		for _, p := range attrs {
			gen++
			n := 0
			for _, row := range rows {
				if id := row[p]; seen[id] != gen {
					seen[id] = gen
					n++
				}
			}
			pl.domainSize[p] = n
		}
	}
}

// countRow adds row to counts, by = 1, or takes it out, by = −1, and
// brings domainSize up to date. The first call makes the counts.
func (pl *fusionPlan) countRow(row []uint32, by int32) {
	if pl.counts == nil {
		pl.counts = make([]map[uint32]int32, len(pl.domainSize))
		for _, attrs := range pl.compAttrs {
			for _, p := range attrs {
				pl.counts[p] = make(map[uint32]int32)
			}
		}
	}
	for _, attrs := range pl.compAttrs {
		for _, p := range attrs {
			m, id := pl.counts[p], row[p]
			if n := m[id] + by; n == 0 {
				delete(m, id)
			} else {
				m[id] = n
			}
			pl.domainSize[p] = len(m)
		}
	}
}

// placeVersions fills at, block bi's zeroed version index (one slot per
// table position), from its pieces' TupleIDs; posOf maps a tuple ID to its
// position, and an ID it does not know is skipped. It runs once per block
// of a whole-table run; a DeltaCleaner places only the groups that moved
// (DeltaCleaner.place).
func (pl *fusionPlan) placeVersions(bi int, at []uint32, posOf func(id int) (int, bool)) {
	for k, p := range pl.blocks[bi].Pieces {
		for _, id := range p.TupleIDs {
			if i, ok := posOf(id); ok {
				at[i] = uint32(k) + 1
			}
		}
	}
	pl.versionOf[bi] = at
}

// planFusion builds the plan of one whole-table run of tb over blocks, whose
// pieces and tb's encoded rows share dict. Every block's version index is
// carved from one array.
func planFusion(dict *intern.Dict, tb *dataset.Table, rows [][]uint32, blocks []*FusionBlock, opts Options) *fusionPlan {
	posPerBlock := make([][]int, len(blocks))
	for bi, fb := range blocks {
		pos := make([]int, len(fb.Attrs))
		for i, a := range fb.Attrs {
			pos[i] = tb.Schema.MustIndex(a)
		}
		posPerBlock[bi] = pos
	}
	pl := newFusionPlan(dict, tb.Schema, posPerBlock, opts)
	pl.countDomains(rows)
	n := len(tb.Tuples)
	at := make([]uint32, len(blocks)*n)
	posOf := tb.Positions().Of
	for bi, fb := range blocks {
		pl.blocks[bi] = fb
		pl.candidates[bi] = buildBlockCands(fb, posPerBlock[bi])
		pl.placeVersions(bi, at[bi*n:(bi+1)*n:(bi+1)*n], posOf)
	}
	return pl
}

// RunFSCREncoded fuses each tuple's per-block cleaned versions into the
// single assignment with the maximal fusion score (the product of the merged
// pieces' weights, Eq. 5, combined with the minimality/observation prior),
// resolving conflicts by substituting the highest-weight non-conflicting
// piece from the conflicting block. The repaired table (same tuple IDs as
// the input) is returned: it holds the input's own tuple for every tuple
// fusion left unchanged and a fresh one for every tuple it changed, and the
// input is not modified. Tuple IDs must be unique; they need not be
// positions, and every tuple must be as wide as the schema, as
// index.Build requires. st (optional) accumulates cell-change, failure and
// truncation counts, and opts.Trace records per-tuple fusion outcomes in
// tuple order. Tuples fuse independently and run in parallel.
//
// enc is the dirty table's encoded rows in the pieces' dictionary, when the
// caller already holds them (the stand-alone pipeline reuses the index's
// encoding); a nil or foreign-dictionary enc is re-encoded.
//
// A tuple with more than 64 versions in one conflicted component cannot be
// searched and is counted as both a failure and a truncation; callers that
// take rule sets from outside run CheckFusionWidth first.
func RunFSCREncoded(dirty *dataset.Table, enc *dataset.Encoded, blocks []*FusionBlock, opts Options, st *Stats) *dataset.Table {
	repaired, _ := runFSCR(dirty, enc, blocks, opts, st)
	return repaired
}

// runFSCR is the one FSCR loop. Besides the repaired table it returns that
// table's encoded rows in the pieces' dictionary, for duplicate elimination:
// a tuple fusion left alone keeps its observed row, a changed tuple gets a
// fresh one, and each row is as wide as the schema. rows is nil when no block
// holds a piece (there is no dictionary to encode into).
func runFSCR(dirty *dataset.Table, enc *dataset.Encoded, blocks []*FusionBlock, opts Options, st *Stats) (repaired *dataset.Table, rows [][]uint32) {
	opts = opts.withDefaults()
	defer mStageFSCR.ObserveSince(time.Now())
	if st == nil {
		st = &Stats{}
	}
	// Copy on write: the repaired table starts as the input's own tuples, and
	// only a tuple fusion changes is replaced, by one carved from a slab.
	repaired = &dataset.Table{Schema: dirty.Schema, Tuples: slices.Clone(dirty.Tuples)}
	dict := fusionDict(blocks)
	if dict == nil {
		return repaired, nil // no pieces anywhere: nothing to fuse
	}
	if enc == nil || enc.Dict != dict || len(enc.Rows) != len(dirty.Tuples) {
		// Encode the observed (dirty) rows into the pieces' dictionary before
		// the parallel loop — the only phase that may grow the dictionary.
		// (Only direct callers pass no encoding; every pipeline, the
		// distributed gather included, hands over rows already in the pieces'
		// dictionary.)
		enc = dataset.Encode(dirty, dict)
	}
	pl := planFusion(dict, dirty, enc.Rows, blocks, opts)
	rows = make([][]uint32, len(enc.Rows))

	// Tuples cost very different amounts (a conflicted one searches), so
	// fixed shares would leave a goroutine idle behind the costliest: each
	// goroutine instead claims the next of about 8 chunks per goroutine. A
	// chunk sums into its own slot and (when tracing) records into its own
	// slice; appending those in chunk order keeps Trace.FSCR in tuple order
	// however the chunks were claimed. Chunks write disjoint slots of
	// repaired and rows, and each carves its changed tuples from its own
	// slabs.
	par := opts.workers()
	n := len(dirty.Tuples)
	chunk := max(1, n/(8*par))
	nChunks := (n + chunk - 1) / chunk
	totals := make([]fuseResult, nChunks)
	outcomes := make([][]FusionOutcome, nChunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(par, nChunks) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := newFuser(pl)
			var changed changedTuples
			for ci := int(next.Add(1) - 1); ci < nChunks; ci = int(next.Add(1) - 1) {
				var trace *[]FusionOutcome
				if opts.Trace != nil {
					trace = &outcomes[ci]
				}
				var total fuseResult
				changed.reset()
				for i := ci * chunk; i < min(n, (ci+1)*chunk); i++ {
					t, dirtyRow := dirty.Tuples[i], enc.Rows[i]
					res := f.fuse(t, i, dirtyRow, trace)
					total.add(res)
					if res.changes == 0 {
						rows[i] = dirtyRow
						continue
					}
					changed.at = append(changed.at, i)
					changed.ids = f.appendFused(changed.ids, dirtyRow)
				}
				changed.carve(dirty, enc.Rows, dict, repaired, rows)
				totals[ci] = total
			}
		}()
	}
	wg.Wait()
	var total fuseResult
	for ci := range totals {
		total.add(totals[ci])
		opts.Trace.addFusions(outcomes[ci])
	}
	st.FSCRCellChanges += int(total.changes)
	st.FusionFailures += int(total.failed)
	st.FusionTruncated += int(total.truncated)
	mFSCRCellChanges.Add(int64(total.changes))
	mFSCRConflicts.Add(int64(total.failed))
	mFSCRTruncated.Add(int64(total.truncated))
	return repaired, rows
}

// changedTuples collects the tuples one chunk's fusion changed — their
// positions, and their fused ID rows back to back — so that carve can copy
// them out of slabs sized to the chunk: a changed tuple costs no allocation
// of its own, and nothing is allocated for an unchanged one. One collector
// serves one goroutine, which reuses its buffers chunk after chunk.
type changedTuples struct {
	at  []int
	ids []uint32
}

func (c *changedTuples) reset() {
	c.at, c.ids = c.at[:0], c.ids[:0]
}

// carve gives every collected tuple its repaired copy in repaired and its
// fused ID row in rows, carved from three slabs: tuples, values, ID rows.
// Every tuple and row is as wide as the schema.
func (c *changedTuples) carve(dirty *dataset.Table, dirtyRows [][]uint32, dict *intern.Dict, repaired *dataset.Table, rows [][]uint32) {
	if len(c.at) == 0 {
		return
	}
	w := dirty.Schema.Len()
	tuples := make([]dataset.Tuple, len(c.at))
	vals := make([]string, len(c.at)*w)
	ids := slices.Clone(c.ids)
	for k, i := range c.at {
		t, row := dirty.Tuples[i], ids[k*w:(k+1)*w:(k+1)*w]
		tuples[k] = dataset.Tuple{ID: t.ID, Values: vals[k*w : (k+1)*w : (k+1)*w]}
		repairedValues(tuples[k].Values, t.Values, row, dirtyRows[i], dict)
		repaired.Tuples[i] = &tuples[k]
		rows[i] = row
	}
}

// repairedValues writes the values of a repaired ID row into vals: the
// observed value where the row kept the observed ID, else the dictionary's.
func repairedValues(vals, observed []string, row, dirtyRow []uint32, dict *intern.Dict) {
	for pos := range vals {
		if row[pos] == dirtyRow[pos] {
			vals[pos] = observed[pos]
		} else {
			vals[pos] = dict.Value(row[pos])
		}
	}
}

// fuseResult is one tuple's fusion accounting (or a sum of them): cells
// changed, and 0/1 flags for "every order failed", "the search hit
// maxFusionStates" and "some versions conflicted". The delta engine keeps
// one per tuple, so the fields are 32 bits wide: a fused table holds fewer
// than 2³¹ cells.
type fuseResult struct {
	changes, failed, truncated, conflicted int32
}

func (r *fuseResult) add(o fuseResult) {
	r.changes += o.changes
	r.failed += o.failed
	r.truncated += o.truncated
	r.conflicted += o.conflicted
}

// fuser runs Alg. 2 for one tuple at a time and owns every buffer the
// search writes, so a warm fuser allocates nothing per tuple or per explored
// state. One fuser serves one goroutine.
//
// A tuple's versions are split by fusion component. A component whose
// versions agree pairwise is their union with f = Π weights, whatever the
// order. A conflicted component runs the memoised permutation search, which
// keeps one working assignment: absorbing a version saves the IDs it
// overwrites on an undo stack and the caller restores them after the
// recursive call. The tuple's result is the union of the components' best
// assignments, the product of their scores, and a failure if any failed.
type fuser struct {
	*fusionPlan
	dirtyRow []uint32 // the tuple's observed value IDs per position

	versions []version  // the tuple's versions in block order
	comp     []version  // the versions of the component being fused
	merged   assignment // the search's working fusion; all unset between searches
	best     assignment // the tuple's winning fusion, filled per component
	undo     []uint32   // IDs overwritten by the absorbs on the current path
	// conflict flags the schema positions on which any explored state
	// disagreed with a version; conflicted says any flag is set.
	conflict   []bool
	conflicted bool
	truncated  bool

	// Per search: the component's positions, the all-consumed mask, the
	// states entered so far, and the best complete order (penalized and raw
	// Eq. 5 score; found = some order completed).
	attrs   []int
	full    uint64
	states  int
	bestF   float64
	bestRaw float64
	found   bool
	visited stateTable

	// record says the fuser keeps reads, what its searches read (the delta
	// engine's fuser only; batch fusers leave it off): one readKey per
	// posting list a replacement search scanned and per position whose
	// domain size the prior read, deduplicated by readKeys.
	record bool
	reads  []uint64
	// With record on, slack is, after a fuse, how far in log space the
	// weights its searches read may drift before the fusion could come out
	// another way: the smallest log ratio of a decision's winner to its
	// runner-up, less slackEps, and 0 for a tie or a search that failed,
	// was truncated or could have been (settle). margin is its running
	// ratio over the fuse. Per search, runner is the best penalized score
	// of a complete order with another assignment than best, and moving
	// that of such an order whose raw score is not 1 (it read a weight
	// below 1, which a Σc can move); bestMoving is moving for best's own
	// assignment, and zero says some complete order scored 0.
	slack, margin              float64
	runner, moving, bestMoving float64
	zero                       bool
}

// slackEps is what a recorded slack keeps back for rounding: each score is
// a product of at most maxComponentVersions weights and one prior factor
// per position, so its relative rounding error is below 1e-13.
const slackEps = 1e-9

// A read key names one input a conflicted search read: the posting list of
// attribute attr's value v in block b's candidate index (attr anyAttr: the
// whole block's order), or, with block domainRead, position attr's domain
// size. Keys order by block, then attribute, then value.
const (
	domainRead = 1<<16 - 1
	anyAttr    = 1<<16 - 1
)

func readKey(block, attr int, v uint32) uint64 {
	return uint64(block)<<48 | uint64(attr)<<32 | uint64(v)
}

// note records read key k. The list is compacted as it grows, so a long
// search keeps it as short as its distinct reads.
func (f *fuser) note(k uint64) {
	if n := len(f.reads); n > 0 && f.reads[n-1] == k {
		return
	}
	if n := len(f.reads); n >= 256 && n == cap(f.reads) {
		f.reads = f.readKeys()
	}
	f.reads = append(f.reads, k)
}

// readKeys is the reads of the last fuse, ascending and distinct, in the
// fuser's buffer.
func (f *fuser) readKeys() []uint64 {
	slices.Sort(f.reads)
	return slices.Compact(f.reads)
}

func newFuser(pl *fusionPlan) *fuser {
	width := pl.schema.Len()
	return &fuser{
		fusionPlan: pl,
		merged:     newAssignment(width),
		best:       newAssignment(width),
		conflict:   make([]bool, width),
	}
}

// fuse runs the fusion for tuple t, at table position at, leaving the
// winning assignment in f.best; t is only read, and appendFused applies the
// result. dirtyRow is the tuple's observed values as IDs in the blocks'
// dictionary. trace, when non-nil, is appended the tuple's outcome — built
// only then, since it costs attribute-name slices and two sorts.
func (f *fuser) fuse(t *dataset.Tuple, at int, dirtyRow []uint32, trace *[]FusionOutcome) fuseResult {
	f.versions = f.versions[:0]
	for bi, fb := range f.blocks {
		k := f.versionOf[bi][at]
		if k == 0 {
			continue
		}
		p := fb.Pieces[k-1]
		f.versions = append(f.versions, version{
			blockIdx: bi,
			comp:     f.compOf[bi],
			rule:     fb.Rule,
			pos:      f.posPerBlock[bi],
			ids:      p.ValueIDs(),
			kid:      p.KeyID(),
			weight:   p.Weight,
		})
	}
	if len(f.versions) == 0 {
		return fuseResult{}
	}
	var out *FusionOutcome
	if trace != nil {
		*trace = append(*trace, FusionOutcome{TupleID: t.ID})
		out = &(*trace)[len(*trace)-1]
	}
	f.dirtyRow = dirtyRow
	f.reads = f.reads[:0]
	f.margin = math.Inf(1)
	raw, ok := f.run()
	if f.record {
		f.slack = max(math.Log(f.margin)-slackEps, 0)
	}
	var res fuseResult
	if f.truncated {
		res.truncated = 1
	}
	if f.conflicted {
		res.conflicted = 1
	}
	if out != nil {
		for p, hit := range f.conflict {
			if hit {
				out.ConflictAttrs = append(out.ConflictAttrs, f.schema.Attr(p))
			}
		}
		sort.Strings(out.ConflictAttrs)
	}
	if !ok {
		res.failed = 1
		if out != nil {
			out.Failed = true
		}
		return res
	}
	for pos, id := range f.best {
		if id == unsetID || dirtyRow[pos] == id {
			continue
		}
		if out != nil {
			out.Changed = append(out.Changed, CellChange{Attr: f.schema.Attr(pos), Old: t.Values[pos], New: f.dict.Value(id)})
		}
		res.changes++
	}
	if out != nil {
		out.FScore = raw
		sort.Slice(out.Changed, func(i, j int) bool { return out.Changed[i].Attr < out.Changed[j].Attr })
	}
	return res
}

// appendFused appends to dst the repaired ID row of the tuple fuse just
// changed: dirtyRow with the winning IDs applied — every one of them a piece
// value, so already in the dictionary.
func (f *fuser) appendFused(dst, dirtyRow []uint32) []uint32 {
	at := len(dst)
	dst = append(dst, dirtyRow...)
	for pos, id := range f.best {
		if id != unsetID {
			dst[at+pos] = id
		}
	}
	return dst
}

// run fuses f.versions component by component into f.best and returns the
// fusion's raw Eq. 5 score; ok is false when some component's every order
// failed (fusion score 0). f.conflict, f.conflicted and f.truncated describe
// the search afterwards.
func (f *fuser) run() (raw float64, ok bool) {
	for i := range f.best {
		f.best[i] = unsetID
	}
	if f.conflicted {
		clear(f.conflict)
	}
	f.conflicted, f.truncated = false, false
	raw, ok = 1, true
	for c, attrs := range f.compAttrs {
		f.comp = f.comp[:0]
		for i := range f.versions {
			if f.versions[i].comp == c {
				f.comp = append(f.comp, f.versions[i])
			}
		}
		if len(f.comp) == 0 {
			continue
		}
		score, agreed := f.union()
		if !agreed {
			for _, p := range attrs {
				f.best[p] = unsetID
			}
			f.attrs = attrs
			score = f.search()
			if f.record {
				f.settle()
			}
			if !f.found {
				ok = false
				continue // keep going: the trace lists every component's conflicts
			}
		}
		raw *= score
	}
	if !ok {
		raw = 0
	}
	return raw, ok
}

// union is the fast path: it absorbs the component's versions into f.best
// in order and reports whether they all agreed. A pair of versions that
// disagrees on a position shows up as a mismatch against the union so far,
// because every earlier writer of that position agreed on it.
func (f *fuser) union() (score float64, agreed bool) {
	score = 1
	for i := range f.comp {
		v := &f.comp[i]
		for k, p := range v.pos {
			if have := f.best[p]; have != unsetID && have != v.ids[k] {
				return 0, false
			}
			f.best[p] = v.ids[k]
		}
		score *= v.weight
	}
	return score, true
}

// search explores the fusion orders of the conflicted component in f.comp
// (positions f.attrs), leaves the best complete fusion in f.best and returns
// its raw score; f.found is false when every order failed. At most
// maxStates states are entered per search; beyond that the best fusion found
// so far stands and the tuple is flagged truncated.
func (f *fuser) search() float64 {
	f.conflicted = true
	f.states, f.bestF, f.bestRaw, f.found = 0, 0, 0, false
	f.runner, f.moving, f.bestMoving, f.zero = 0, 0, 0, false
	if len(f.comp) > maxComponentVersions {
		f.truncated = true
		return 0
	}
	f.full = ^uint64(0) >> uint(64-len(f.comp))
	f.visited.reset(2 + len(f.attrs))
	for i := range f.comp {
		v := &f.comp[i]
		mark := f.absorb(v.pos, v.ids)
		f.extend(v.weight, 1<<uint(i))
		f.restore(v.pos, mark)
	}
	return f.bestRaw
}

// absorb merges the piece into the working fusion (the caller has resolved
// conflicts first) and returns the undo mark to hand to restore.
func (f *fuser) absorb(pos []int, ids []uint32) int {
	mark := len(f.undo)
	for i, p := range pos {
		f.undo = append(f.undo, f.merged[p])
		f.merged[p] = ids[i]
	}
	return mark
}

// restore undoes the absorb that returned mark.
func (f *fuser) restore(pos []int, mark int) {
	for i, p := range pos {
		f.merged[p] = f.undo[mark+i]
	}
	f.undo = f.undo[:mark]
}

// conflicts reports whether the working fusion disagrees with the (pos,
// ids) piece, flagging every position it disagrees on.
func (f *fuser) conflicts(pos []int, ids []uint32) bool {
	any := false
	for i, p := range pos {
		if v := f.merged[p]; v != unsetID && v != ids[i] {
			f.conflict[p] = true
			any = true
		}
	}
	return any
}

// penalized applies the minimality prior to the working fusion: each
// attribute it would change relative to the observed tuple costs a factor of
// ε/(1−ε) · 1/(|domain|−1) — the likelihood that corruption of the fused
// (hypothesized clean) value produced exactly the observed dirty value.
// Constants shared by all fusions of the same tuple cancel, so only changed
// cells contribute.
func (f *fuser) penalized(raw float64) float64 {
	if f.penalty >= 1 {
		return raw
	}
	out := raw
	for _, pos := range f.attrs {
		id := f.merged[pos]
		if id == unsetID || id == f.dirtyRow[pos] {
			continue
		}
		out *= f.penalty
		if f.record {
			f.note(readKey(domainRead, pos, 0))
		}
		if n := f.domainSize[pos]; n > 2 {
			out /= float64(n - 1)
		}
	}
	return out
}

// extend is GetFusionT: f.merged holds the fusion so far, fscore its score,
// mask the consumed versions of f.comp.
func (f *fuser) extend(fscore float64, mask uint64) {
	if mask == f.full {
		p := f.penalized(fscore)
		if f.record {
			f.rank(p, fscore)
		}
		if p > f.bestF {
			f.bestF, f.bestRaw, f.found = p, fscore, true
			for _, pos := range f.attrs {
				f.best[pos] = f.merged[pos]
			}
		}
		return
	}
	if f.states >= f.maxStates {
		f.truncated = true
		return
	}
	if !f.visited.improve(mask, f.merged, f.attrs, fscore) {
		return
	}
	f.states++

	for j := range f.comp {
		bit := uint64(1) << uint(j)
		if mask&bit != 0 {
			continue
		}
		vj := &f.comp[j]
		ids, weight := vj.ids, vj.weight
		if f.conflicts(vj.pos, ids) {
			// Replacement: highest-weight piece from block Bj that does not
			// conflict with the fusion so far.
			bc := f.candidates[vj.blockIdx]
			list, k, on := bc.locate(f.merged, vj.kid)
			if f.record {
				if on < 0 {
					f.note(readKey(vj.blockIdx, anyAttr, 0))
				} else {
					f.note(readKey(vj.blockIdx, on, f.merged[vj.pos[on]]))
				}
				if k < len(list) {
					f.margin = min(f.margin, bc.margin(list, k, f.merged, vj.kid))
				}
			}
			if k == len(list) {
				// A CFD version is conditional: when the fusion so far
				// contradicts the pattern constants, the rule simply no
				// longer applies to the tuple, so the version is vacuous and
				// may be skipped instead of failing the order. Without this,
				// a value erroneously replaced INTO a CFD pattern (e.g.
				// Make ← "acura") could never be repaired: the CFD block
				// holds no candidates outside its pattern.
				if f.cfdVacuous(vj) {
					f.extend(fscore, mask|bit)
				}
				continue // this order fails (f-score 0)
			}
			repl := &bc.ents[list[k]]
			ids, weight = repl.ids, repl.weight
		}
		mark := f.absorb(vj.pos, ids)
		f.extend(fscore*weight, mask|bit)
		f.restore(vj.pos, mark)
	}
}

// rank files the complete order just reached, of penalized score p and raw
// score raw, against the best so far, before extend takes it or not: an
// order with best's assignment can raise bestMoving, one that beats best
// with another assignment makes best the runner-up, and any other raises
// the runner-up. An order with best's assignment never counts as a
// runner-up, except in moving, which is kept an upper bound: the order that
// replaces best need not be counted out of it.
func (f *fuser) rank(p, raw float64) {
	move := 0.0
	if raw != 1 {
		move = p
	}
	f.zero = f.zero || p == 0
	switch {
	case f.found && f.sameAsBest():
		f.bestMoving = max(f.bestMoving, move)
	case p > f.bestF:
		if f.found {
			f.runner, f.moving = f.bestF, max(f.moving, f.bestMoving)
		}
		f.bestMoving = move
	default:
		f.runner, f.moving = max(f.runner, p), max(f.moving, move)
	}
}

// sameAsBest reports whether the working fusion is best's assignment.
func (f *fuser) sameAsBest() bool {
	for _, pos := range f.attrs {
		if f.merged[pos] != f.best[pos] {
			return false
		}
	}
	return true
}

// settle folds the search just run into margin: the ratio of best's score
// to the runner-up's. With the weights a search read kept in order, every
// state it reaches stays reachable, and what it returns is the first
// complete order of the highest score, so the assignment holds while best
// stays ahead of every order with another assignment. Best of raw score 1
// read weight 1 only, which stays put (blockCands.margin), and so do the
// scores of other such orders: it need stay ahead of moving only. A search
// that failed, was truncated or could be (the orders' prefixes could number
// maxStates), or met a score of 0, leaves a margin of 1.
func (f *fuser) settle() {
	runner := f.runner
	if f.bestRaw == 1 {
		runner = f.moving
	}
	switch {
	case !f.found || f.truncated || f.zero || f.crowded(len(f.comp)):
		f.margin = 1
	case runner > 0:
		f.margin = min(f.margin, f.bestF/runner)
	}
}

// crowded reports whether a search over m versions could enter maxStates
// states: one per order prefix of 1 to m−1 versions, at most. Below that
// the search enters every state it reaches, whatever the scores, and only
// how often it re-enters one depends on them.
func (f *fuser) crowded(m int) bool {
	n, t := 0, 1
	for k := 1; k < m; k++ {
		t *= m - k + 1
		if n += t; n >= f.maxStates {
			return true
		}
	}
	return false
}

// cfdVacuous reports whether version v comes from a CFD whose constant
// reason pattern is contradicted by the fusion so far — in that case the
// rule does not apply to the fused tuple and the version carries no
// information.
func (f *fuser) cfdVacuous(v *version) bool {
	if v.rule == nil || v.rule.Kind != rules.CFD {
		return false
	}
	anyConst := false
	for _, pat := range v.rule.Reason {
		if pat.Const == "" {
			continue
		}
		anyConst = true
		got := f.merged[f.schema.MustIndex(pat.Attr)]
		if got == unsetID {
			return false // undetermined → cannot declare vacuous
		}
		if cid, ok := f.dict.Lookup(pat.Const); ok && got == cid {
			return false // still matches a constant → still applicable
		}
	}
	return anyConst
}

// stateTable is the search's memo: for each (consumed mask, fusion over the
// component's positions) state, the best score that reached it. It is an
// open-addressing table over fixed-width integer keys stored back to back,
// so entering a state allocates nothing once the table has grown to the
// largest search its fuser has seen.
type stateTable struct {
	slots  []uint32  // entry index + 1, 0 = empty; len is a power of two
	keys   []uint32  // entry i's key is keys[i*kw : (i+1)*kw]
	scores []float64 // entry i's best score
	kw     int       // key width: 2 mask words + one ID per position
}

// reset empties the table for a search whose keys are kw words wide.
func (t *stateTable) reset(kw int) {
	if len(t.scores) > 0 {
		clear(t.slots)
	}
	t.keys, t.scores, t.kw = t.keys[:0], t.scores[:0], kw
}

// improve records that score reached the state and reports whether the
// search should go on from it: true for a state not seen before or reached
// with a strictly better score than before.
func (t *stateTable) improve(mask uint64, merged assignment, attrs []int, score float64) bool {
	if 2*(len(t.scores)+1) > len(t.slots) {
		t.grow()
	}
	// Write the key where a new entry's would go; it stays only if new.
	at := len(t.keys)
	t.keys = append(t.keys, uint32(mask), uint32(mask>>32))
	for _, p := range attrs {
		t.keys = append(t.keys, merged[p])
	}
	key := t.keys[at:]
	for i := hashWords(key) & uint64(len(t.slots)-1); ; i = (i + 1) & uint64(len(t.slots)-1) {
		e := t.slots[i]
		if e == 0 {
			t.slots[i] = uint32(len(t.scores)) + 1
			t.scores = append(t.scores, score)
			return true
		}
		if slices.Equal(t.keys[int(e-1)*t.kw:int(e)*t.kw], key) {
			t.keys = t.keys[:at]
			if score <= t.scores[e-1] {
				return false
			}
			t.scores[e-1] = score
			return true
		}
	}
}

// grow doubles the slot array and re-seats every entry.
func (t *stateTable) grow() {
	n := 2 * len(t.slots)
	if n == 0 {
		n = 64
	}
	t.slots = make([]uint32, n)
	for e := range t.scores {
		i := hashWords(t.keys[e*t.kw:(e+1)*t.kw]) & uint64(n-1)
		for t.slots[i] != 0 {
			i = (i + 1) & uint64(n-1)
		}
		t.slots[i] = uint32(e) + 1
	}
}

func hashWords(ws []uint32) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range ws {
		h = (h ^ uint64(w)) * 0xFF51AFD7ED558CCD
		h ^= h >> 32
	}
	return h
}
