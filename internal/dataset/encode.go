package dataset

import "mlnclean/internal/intern"

// Encoded is the dictionary-encoded companion of a Table: one dense uint32
// value ID per cell, row-aligned with Table.Tuples (positional, not by tuple
// ID). The hot pipeline paths — index construction, AGP/RSC distances, FSCR
// fusion — operate on these IDs; strings are only re-materialized at output
// and trace boundaries.
type Encoded struct {
	Dict *intern.Dict
	// Rows holds one ID slice per tuple, in Table.Tuples order.
	Rows [][]uint32
}

// Encode interns every cell of the table into dict (creating a fresh
// dictionary when nil) and returns the encoded companion. Cell IDs are
// assigned in row-major first-sight order, so encoding the same table into
// an empty dictionary is deterministic.
func Encode(tb *Table, dict *intern.Dict) *Encoded {
	if dict == nil {
		dict = intern.NewDict()
	}
	enc := &Encoded{Dict: dict, Rows: make([][]uint32, len(tb.Tuples))}
	width := tb.Schema.Len()
	flat := make([]uint32, len(tb.Tuples)*width) // one backing array, no per-row alloc
	for i, t := range tb.Tuples {
		row := flat[i*width : (i+1)*width : (i+1)*width]
		for j, v := range t.Values {
			row[j] = dict.Intern(v)
		}
		enc.Rows[i] = row
	}
	return enc
}
