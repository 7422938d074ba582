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

// preRepairTable rebuilds the session's original streamed input — the
// pre-repair table rollback restores — from the logged batches. Tuple IDs
// are stream positions, matching the repaired table's.
func preRepairTable(schema *dataset.Schema, batches [][][]string) (*dataset.Table, error) {
	tb := dataset.NewTable(schema)
	for _, b := range batches {
		for _, row := range b {
			if _, err := tb.Append(row...); err != nil {
				return nil, fmt.Errorf("server: rebuild pre-repair table: %w", err)
			}
		}
	}
	return tb, nil
}
