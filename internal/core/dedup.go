package core

import (
	"cmp"
	"slices"

	"mlnclean/internal/dataset"
)

// Dedup removes exact-duplicate tuples (identical on every attribute) from
// the repaired table, keeping the lowest-ID representative of each
// duplicate set (§5.2: after FSCR, MLNClean automatically detects and
// removes duplicate tuples). Row identity is a sequence of value IDs, not a
// joined string, so values containing the key separator cannot alias two
// distinct rows. Returns the deduplicated table, whose tuples are tb's own,
// and the duplicate sets (each with ≥ 2 members, representative first).
//
// This is the string entry to dedupRows, for a table that arrives without
// encoded rows; StageII hands FSCR's rows over directly.
func Dedup(tb *dataset.Table) (*dataset.Table, [][]int) {
	flat := make([]uint32, 0, len(tb.Tuples)*tb.Schema.Len()) // one array unless a row is over-long
	rows := make([][]uint32, len(tb.Tuples))
	ids := make(map[string]uint32)
	for i, t := range tb.Tuples {
		at := len(flat)
		for _, v := range t.Values {
			id, ok := ids[v]
			if !ok {
				id = uint32(len(ids))
				ids[v] = id
			}
			flat = append(flat, id)
		}
		rows[i] = flat[at:len(flat):len(flat)]
	}
	return dedupRows(tb, rows, hashWords)
}

// dedupRows is the one duplicate elimination: rows[i] is tb.Tuples[i] as
// value IDs of any one dictionary, and two tuples are duplicates iff their
// rows are equal word for word (so rows of unequal length never are).
// Survivors are tb's tuples, in table order; sets are ordered by their
// representative, members in table order. Each array is allocated once, and
// none grows by appending.
func dedupRows(tb *dataset.Table, rows [][]uint32, hash func([]uint32) uint64) (*dataset.Table, [][]int) {
	var s dedupScratch
	dupRows := s.mark(rows, hash)
	clean := &dataset.Table{Schema: tb.Schema, Tuples: make([]*dataset.Tuple, 0, len(rows)-dupRows)}
	for i, r := range s.repeats {
		if r == 0 {
			clean.Tuples = append(clean.Tuples, tb.Tuples[i])
		}
	}
	if dupRows == 0 {
		return clean, nil
	}
	return clean, s.group(tb.Tuples, dupRows)
}

// dedupScratch holds duplicate elimination's probe arrays, one per call (the
// delta engine keeps a dupIndex across Apply calls instead).
type dedupScratch struct {
	slots   []int32 // index + 1 of the first row with this content; 0 = empty
	repeats []int32 // index + 1 of the earlier row a row repeats; 0 = none
}

// mark probes every row against the rows before it and returns how many
// repeat an earlier one. The rows seen so far live in an open-addressing set
// of row indices keyed by hash; a probe hit is confirmed by comparing the
// rows, so hash only decides how far a probe walks.
func (s *dedupScratch) mark(rows [][]uint32, hash func([]uint32) uint64) int {
	size := 16
	for size < 2*len(rows) {
		size *= 2
	}
	mask := uint64(size - 1)
	s.slots, s.repeats = zeroed(s.slots, size), zeroed(s.repeats, len(rows))
	dupRows := 0
	for i, row := range rows {
		for h := hash(row) & mask; ; h = (h + 1) & mask {
			first := s.slots[h]
			if first == 0 {
				s.slots[h] = int32(i) + 1
				break
			}
			if slices.Equal(rows[first-1], row) {
				s.repeats[i] = first
				dupRows++
				break
			}
		}
	}
	return dupRows
}

// group gathers the rows mark found repeated into duplicate sets of tuple
// IDs (tuples[i] is row i's tuple): representative first, sets ordered by
// representative, members in table order, every set's IDs back to back in
// one array.
func (s *dedupScratch) group(tuples []*dataset.Tuple, dupRows int) [][]int {
	// The probe set is done with: its first len(repeats) slots count each
	// representative's repeats, then hold where its next member goes.
	count := s.slots[:len(s.repeats)]
	clear(count)
	sets := 0
	for _, r := range s.repeats {
		if r != 0 {
			if count[r-1] == 0 {
				sets++
			}
			count[r-1]++
		}
	}
	flat := make([]int, 0, sets+dupRows)
	dups := make([][]int, 0, sets)
	for i, n := range count {
		if n == 0 {
			continue
		}
		start := len(flat)
		flat = append(flat, tuples[i].ID)
		count[i] = int32(len(flat))
		flat = flat[:len(flat)+int(n)]
		dups = append(dups, flat[start:len(flat):len(flat)])
	}
	for i, r := range s.repeats {
		if r != 0 {
			flat[count[r-1]] = tuples[i].ID
			count[r-1]++
		}
	}
	return dups
}

// zeroed is buf resized to n zeroes, reusing its array when it is large
// enough.
func zeroed(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// dupIndex is the delta engine's duplicate elimination, kept across
// Applies: every live tuple's ID filed under the hash of its fused row. A
// mutation re-files only the rows whose fused row moved and the rows it
// inserted or deleted, and the next mint regroups only the hashes whose rows
// moved (sets).
type dupIndex struct {
	// one maps a hash that one live row holds to its tuple ID, and a hash
	// several rows share to −1: those rows are in many.
	one  map[uint64]int
	many map[uint64]*dupClass
	// moved lists the hashes whose rows moved since the last sets, and gone
	// the sets of the classes that have dissolved since.
	moved []uint64
	gone  [][]int
}

// dupClass is the rows that share one hash: their tuple IDs, ascending, and
// the duplicate sets among them as of the last sets.
type dupClass struct {
	ids  []int
	sets [][]int
}

func newDupIndex(n int) *dupIndex {
	return &dupIndex{one: make(map[uint64]int, n), many: make(map[uint64]*dupClass)}
}

// add files tuple id under its fused row's hash h.
func (x *dupIndex) add(id int, h uint64) {
	first, ok := x.one[h]
	switch {
	case !ok:
		x.one[h] = id
		return
	case first >= 0:
		x.one[h] = -1
		x.many[h] = &dupClass{ids: []int{min(first, id), max(first, id)}}
	default:
		c := x.many[h]
		at, _ := slices.BinarySearch(c.ids, id)
		c.ids = slices.Insert(c.ids, at, id)
	}
	x.moved = append(x.moved, h)
}

// remove takes tuple id out from under hash h, which add filed it under.
func (x *dupIndex) remove(id int, h uint64) {
	if x.one[h] >= 0 {
		delete(x.one, h)
		return
	}
	c := x.many[h]
	at, _ := slices.BinarySearch(c.ids, id)
	c.ids = slices.Delete(c.ids, at, at+1)
	if len(c.ids) == 1 {
		x.one[h] = c.ids[0]
		delete(x.many, h)
		x.gone = append(x.gone, c.sets...)
	}
	x.moved = append(x.moved, h)
}

// sets returns the duplicate sets of the live rows (rowOf gives a tuple's
// fused row): representative first, sets ordered by representative,
// members ascending. was is the last sets returned: only the classes whose
// rows moved since are regrouped, their old sets are taken out of was and
// their new ones merged in, and was itself is returned when the sets taken
// out and put in are the same.
func (x *dupIndex) sets(rowOf func(id int) []uint32, was [][]int) [][]int {
	slices.Sort(x.moved)
	out, in := x.gone, [][]int(nil)
	for _, h := range slices.Compact(x.moved) {
		if c := x.many[h]; c != nil {
			if sets := c.regroup(rowOf); !slices.EqualFunc(sets, c.sets, slices.Equal) {
				out, in = append(out, c.sets...), append(in, sets...)
				c.sets = sets
			}
		}
	}
	x.moved, x.gone = x.moved[:0], nil
	byRep := func(a, b []int) int { return cmp.Compare(a[0], b[0]) }
	slices.SortFunc(out, byRep)
	slices.SortFunc(in, byRep)
	if slices.EqualFunc(out, in, slices.Equal) {
		return was
	}
	// Both was and in ascend by representative, out is a part of was, and
	// no two sets share a representative.
	dups := make([][]int, 0, len(was)-len(out)+len(in))
	for _, set := range was {
		if len(out) > 0 && out[0][0] == set[0] {
			out = out[1:]
			continue
		}
		for len(in) > 0 && in[0][0] < set[0] {
			dups, in = append(dups, in[0]), in[1:]
		}
		dups = append(dups, set)
	}
	if dups = append(dups, in...); len(dups) == 0 {
		return nil
	}
	return dups
}

// regroup splits the class into the sets of rows that are equal word for
// word: new arrays, since versions hold the last ones. Rows that only share
// the hash stay apart.
func (c *dupClass) regroup(rowOf func(id int) []uint32) [][]int {
	var sets [][]int
	for rest := c.ids; len(rest) > 1; {
		row := rowOf(rest[0])
		set, other := []int{rest[0]}, []int(nil)
		for _, id := range rest[1:] {
			if slices.Equal(rowOf(id), row) {
				set = append(set, id)
			} else {
				other = append(other, id)
			}
		}
		if len(set) > 1 {
			sets = append(sets, set)
		}
		rest = other
	}
	return sets
}

// entries counts the tuple IDs the index files: one per live tuple.
func (x *dupIndex) entries() int {
	n := len(x.one) - len(x.many)
	for _, c := range x.many {
		n += len(c.ids)
	}
	return n
}
