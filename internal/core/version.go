package core

import (
	"slices"

	"mlnclean/internal/dataset"
)

// A Version is one immutable output of the delta engine: the fused table,
// its duplicate sets, its Stats and its audit trail. Versions share
// structure. The table and the trail live in row chunks by tuple-ID range,
// and a version minted by Apply rebuilds only the chunks whose rows the
// mutation or the re-fusion touched, taking every other chunk pointer from
// its parent. Repair attribution reads weights, which drift with every
// rebuild of a block, so a chunk keeps repaired cells on value IDs only and
// a version keeps each block's weight vector: a rule and a weight are
// resolved when the trail is read.

// chunkWidth is how many tuple IDs a row chunk spans: chunk k holds the live
// rows with IDs in [k·chunkWidth, (k+1)·chunkWidth). Fixed ranges mean an
// insert or delete touches one chunk and shifts none.
const chunkWidth = 256

// rowChunk is one ID range of a version: its live rows' fused tuples, in ID
// order, and the cells fusion changed among them, in trail order. Never
// edited once built.
type rowChunk struct {
	tuples []*dataset.Tuple
	trail  []trailCell
}

func (c *rowChunk) key() int { return c.tuples[0].ID / chunkWidth }

// trailCell is one repaired cell on value IDs: the dirty and repaired values
// at schema position attr, and the tuple's fused row, which the engine
// replaces wholesale and never edits.
type trailCell struct {
	tuple    int
	attr     int
	old, new uint32
	fused    []uint32
}

// blockWeights is one block's fragment of the weight vector repair
// attribution reads: its post-stage-I pieces' sequence keys, ascending, and
// their learned weights, in two parallel arrays (12 bytes a piece, where a
// struct of both would be padded to 16). Every rebuild of the block
// allocates new weights, and new keys unless its pieces are the same, so
// versions share them until the next rebuild.
type blockWeights struct {
	keys    []uint32
	weights []float64
}

// Version is one minted output of a DeltaCleaner (see LoadVersion and
// ApplyVersion). Its table, duplicate sets and Stats may be read from any
// goroutine. Its trail resolves strings and weights through the engine's
// dictionary, which a later Apply appends to, so Trail and Repairs must not
// run concurrently with the engine's Load or Apply.
type Version struct {
	eng     *DeltaCleaner // for its constants: schema, rules, dictionary
	chunks  []*rowChunk   // ascending by key
	weights []blockWeights
	dups    [][]int
	stats   Stats
	repairs int
}

// Stats is the run's Stats, as a from-scratch Clean of the version's table
// reports them.
func (v *Version) Stats() Stats { return v.stats }

// TrailLen is the length of the version's audit trail.
func (v *Version) TrailLen() int { return v.repairs }

// Result materializes the version as Clean's Result of the same table.
// Result.Index is nil: the engine is the index's keeper across mutations.
// The tuples and duplicate sets are the version's own, shared: callers treat
// Results as immutable.
func (v *Version) Result() *Result {
	repaired := &dataset.Table{Schema: v.eng.schema, Tuples: make([]*dataset.Tuple, 0, v.stats.Tuples)}
	for _, c := range v.chunks {
		repaired.Tuples = append(repaired.Tuples, c.tuples...)
	}
	return &Result{Repaired: repaired, Clean: v.clean(repaired.Tuples), Duplicates: v.dups, Stats: v.stats}
}

// clean is the version's clean table over its repaired tuples: all of them
// when there are no duplicate sets, else a copy less every duplicate but
// each set's representative.
func (v *Version) clean(tuples []*dataset.Tuple) *dataset.Table {
	if len(v.dups) == 0 {
		return &dataset.Table{Schema: v.eng.schema, Tuples: tuples}
	}
	removed := make([]int, 0, v.stats.DuplicatesRemoved)
	for _, set := range v.dups {
		removed = append(removed, set[1:]...)
	}
	slices.Sort(removed)
	kept := make([]*dataset.Tuple, 0, len(tuples)-len(removed))
	for _, t := range tuples {
		if len(removed) > 0 && removed[0] == t.ID {
			removed = removed[1:]
			continue
		}
		kept = append(kept, t)
	}
	return &dataset.Table{Schema: v.eng.schema, Tuples: kept}
}

// Trail materializes the version's whole audit trail; nil when fusion
// changed no cell.
func (v *Version) Trail() []Repair {
	if v.repairs == 0 {
		return nil
	}
	return v.Repairs(0, v.repairs)
}

// Repairs resolves the trail's entries [from, to), clamped to the trail:
// each Repair's strings, and its rule and weight from the version's weight
// vectors. The result is exact for any later state of the dictionary, which
// only grows: a sequence that existed at mint time looks up to the key it
// had then, and one interned later has a key no piece of the version holds.
func (v *Version) Repairs(from, to int) []Repair {
	to = min(to, v.repairs)
	if from >= to {
		return nil
	}
	out := make([]Repair, 0, to-from)
	var proj []uint32
	at := 0 // the trail index of the chunk's first cell
	for _, c := range v.chunks {
		lo, hi := min(max(from-at, 0), len(c.trail)), min(to-at, len(c.trail))
		for _, cell := range c.trail[lo:hi] {
			r := Repair{
				Tuple: cell.tuple, Attr: v.eng.schema.Attr(cell.attr),
				Old: v.eng.dict.Value(cell.old), New: v.eng.dict.Value(cell.new),
			}
			r.Rule, r.Weight, proj = v.attribute(cell.fused, cell.attr, proj)
			out = append(out, r)
		}
		if at += len(c.trail); at >= to {
			break
		}
	}
	return out
}

// mint builds the engine's next version. The chunks of the keys in touched
// are rebuilt from the engine's caches, and every other chunk is the
// current version's; so are the duplicate sets when dedup found the same
// ones. Load mints version 1 the same way, every chunk touched.
func (d *DeltaCleaner) mint() *Version {
	v := &Version{eng: d, stats: Stats{Tuples: len(d.tuples), Blocks: len(d.blocks)}}
	v.weights = make([]blockWeights, len(d.blocks))
	for bi, db := range d.blocks {
		v.stats.Groups += len(db.block.Groups)
		v.stats.addBlock(&db.res)
		v.weights[bi] = db.weights
	}
	for _, r := range d.fuseRes {
		v.stats.FSCRCellChanges += r.changes
		v.stats.FusionFailures += r.failed
		v.stats.FusionTruncated += r.truncated
	}

	var parent *Version
	var was []*rowChunk
	if d.cur != nil {
		parent, was = d.cur, d.cur.chunks
	}
	slices.Sort(d.touched)
	touched := slices.Compact(d.touched)
	v.chunks = make([]*rowChunk, 0, len(was)+len(touched))
	for _, k := range touched {
		for len(was) > 0 && was[0].key() < k {
			v.chunks, was = append(v.chunks, was[0]), was[1:]
		}
		if len(was) > 0 && was[0].key() == k {
			was = was[1:]
		}
		if c := d.buildChunk(k); c != nil {
			v.chunks = append(v.chunks, c)
		}
	}
	v.chunks = append(v.chunks, was...)
	d.touched = d.touched[:0]
	for _, c := range v.chunks {
		v.repairs += len(c.trail)
	}

	if !d.opts.KeepDuplicates {
		// The fused rows are in ascending tuple-ID order, as a from-scratch
		// pass sees them.
		if dupRows := d.dedup.mark(d.fusedRows, hashWords); dupRows > 0 {
			v.dups = d.dedup.group(d.fusedTuples, dupRows)
			if parent != nil && slices.EqualFunc(v.dups, parent.dups, slices.Equal) {
				v.dups = parent.dups
			}
		}
		for _, set := range v.dups {
			v.stats.DuplicatesRemoved += len(set) - 1
		}
	}
	d.cur = v
	return v
}

// buildChunk builds chunk k from the engine's caches; nil when no live row
// falls in its range.
func (d *DeltaCleaner) buildChunk(k int) *rowChunk {
	lo, _ := slices.BinarySearch(d.ids, k*chunkWidth)
	hi := lo
	for hi < len(d.ids) && d.ids[hi]/chunkWidth == k {
		hi++
	}
	if lo == hi {
		return nil
	}
	n := 0
	for i := lo; i < hi; i++ {
		dirty := d.encRows[i]
		for p, id := range d.fusedRows[i] {
			if id != dirty[p] {
				n++
			}
		}
	}
	c := &rowChunk{tuples: slices.Clone(d.fusedTuples[lo:hi])}
	if n > 0 {
		c.trail = make([]trailCell, 0, n)
	}
	for i := lo; i < hi; i++ {
		dirty, fixed := d.encRows[i], d.fusedRows[i]
		for p, id := range fixed {
			if id != dirty[p] {
				c.trail = append(c.trail, trailCell{tuple: d.ids[i], attr: p, old: dirty[p], new: id, fused: fixed})
			}
		}
	}
	return c
}

// touch marks the chunk holding tuple ID id for the next mint.
func (d *DeltaCleaner) touch(id int) {
	k := id / chunkWidth
	if n := len(d.touched); n == 0 || d.touched[n-1] != k {
		d.touched = append(d.touched, k)
	}
}
