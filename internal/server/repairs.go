package server

import (
	"fmt"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
)

// Repair is one applied cell change in a version's audit trail, as the
// repairs endpoint serves it and the log carries version 1's. The delta
// engine builds the trail (core.DeltaCleaner.Trail), attributing each repair
// exactly on value IDs; the server only stores and pages it.
type Repair = core.Repair

// foldTable is a session's input table after the logged batches and the
// mutations muts, in ascending-ID order: rows are numbered by stream
// position, each PUT replaces or inserts its row by ID and each DELETE drops
// it. With no mutations it is the pre-repair table rollback restores. nextRow
// is one past the largest row ID ever stored, deleted ones included. Rows are
// shared with the log, which is never written; the engine checks widths.
func foldTable(schema *dataset.Schema, batches [][][]string, muts []recMutation) (tb *dataset.Table, nextRow int, err error) {
	var rows [][]string // by ID; nil for a deleted row
	for _, b := range batches {
		rows = append(rows, b...)
	}
	for _, m := range muts {
		if m.Row < 0 || (m.Op != mutPut && m.Op != mutDelete) {
			return nil, 0, fmt.Errorf("server: fold logged mutation: %s of row %d", m.Op, m.Row)
		}
		if m.Row >= len(rows) {
			rows = append(rows, make([][]string, m.Row+1-len(rows))...)
		}
		rows[m.Row] = m.Values // nil for a delete
	}
	tb = dataset.NewTable(schema)
	for id, row := range rows {
		if row != nil {
			tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: id, Values: row})
		}
	}
	return tb, len(rows), nil
}
