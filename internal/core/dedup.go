package core

import (
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
// rows are equal word for word (so rows of unequal length never are). The
// rows seen so far live in an open-addressing set of row indices keyed by
// hash; a probe hit is confirmed by comparing the rows, so hash only decides
// how far a probe walks. Survivors are tb's tuples, in table order; sets are
// ordered by their representative, members in table order. Each array is
// allocated once, and none grows by appending.
func dedupRows(tb *dataset.Table, rows [][]uint32, hash func([]uint32) uint64) (*dataset.Table, [][]int) {
	size := 16
	for size < 2*len(rows) {
		size *= 2
	}
	mask := uint64(size - 1)
	slots := make([]int32, size)        // index + 1 of the first row with this content; 0 = empty
	repeats := make([]int32, len(rows)) // index + 1 of the earlier row a row repeats; 0 = none
	clean := &dataset.Table{Schema: tb.Schema, Tuples: make([]*dataset.Tuple, 0, len(rows))}
	for i, row := range rows {
		for s := hash(row) & mask; ; s = (s + 1) & mask {
			first := slots[s]
			if first == 0 {
				slots[s] = int32(i) + 1
				clean.Tuples = append(clean.Tuples, tb.Tuples[i])
				break
			}
			if slices.Equal(rows[first-1], row) {
				repeats[i] = first
				break
			}
		}
	}
	dupRows := len(rows) - len(clean.Tuples)
	if dupRows == 0 {
		return clean, nil
	}
	// The set is done with: its first len(rows) slots count each
	// representative's repeats, then hold where its next member goes.
	count := slots[:len(rows)]
	clear(count)
	sets := 0
	for _, r := range repeats {
		if r != 0 {
			if count[r-1] == 0 {
				sets++
			}
			count[r-1]++
		}
	}
	flat := make([]int, 0, sets+dupRows) // every set's IDs back to back
	dups := make([][]int, 0, sets)
	for i, n := range count {
		if n == 0 {
			continue
		}
		start := len(flat)
		flat = append(flat, tb.Tuples[i].ID)
		count[i] = int32(len(flat))
		flat = flat[:len(flat)+int(n)]
		dups = append(dups, flat[start:len(flat):len(flat)])
	}
	for i, r := range repeats {
		if r != 0 {
			flat[count[r-1]] = tb.Tuples[i].ID
			count[r-1]++
		}
	}
	return clean, dups
}
