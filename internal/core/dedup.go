package core

import (
	"mlnclean/internal/dataset"
	"mlnclean/internal/intern"
)

// Dedup removes exact-duplicate tuples (identical on every attribute) from
// the repaired table, keeping the lowest-ID representative of each
// duplicate set (§5.2: after FSCR, MLNClean automatically detects and
// removes duplicate tuples). Row identity is an interned ID-sequence key,
// not a joined string, so values containing the key separator cannot alias
// two distinct rows. Returns the deduplicated table and the duplicate sets
// (each with ≥ 2 members, representative first).
func Dedup(tb *dataset.Table) (*dataset.Table, [][]int) {
	out := dataset.NewTable(tb.Schema)
	dict := intern.NewDict()
	members := make(map[uint32][]int) // row key → all tuple IDs
	var order []uint32
	var ids []uint32
	for _, t := range tb.Tuples {
		ids = ids[:0]
		for _, v := range t.Values {
			ids = append(ids, dict.Intern(v))
		}
		k := dict.Seq(ids)
		if _, ok := members[k]; !ok {
			order = append(order, k)
			out.Tuples = append(out.Tuples, t.Clone())
		}
		members[k] = append(members[k], t.ID)
	}
	var dups [][]int
	for _, k := range order {
		if ids := members[k]; len(ids) > 1 {
			dups = append(dups, ids)
		}
	}
	return out, dups
}
