package core

import (
	"context"
	"fmt"

	"mlnclean/internal/dataset"
	"mlnclean/internal/rules"
)

// Result is the output of a cleaning run. Results are read-only: Repaired
// and Clean share every tuple fusion left unchanged with the input table,
// Clean shares its tuples with Repaired, and a DeltaCleaner's successive
// Results share the tuples no mutation re-fused, so a caller that wants to
// edit one clones it first.
type Result struct {
	// Clean is the final cleaned dataset (duplicates removed unless
	// Options.KeepDuplicates): the surviving tuples of Repaired themselves,
	// not copies.
	Clean *dataset.Table
	// Repaired is the cleaned table before duplicate elimination; it has
	// exactly the input's tuple IDs, which evaluation code diffs against
	// ground truth. A tuple fusion left unchanged is the input's own; a
	// tuple it changed is a fresh one.
	Repaired *dataset.Table
	// Duplicates lists the removed duplicate sets (representative first).
	Duplicates [][]int
	// Stats summarizes the run.
	Stats Stats
}

// Clean runs the full MLNClean pipeline (Alg. 1) on the dirty table:
//
//  1. MLN index construction: one block per rule, one group per distinct
//     reason key (γs with the same reason part share a group).
//  2. Stage I, per block (independent, parallelized): AGP merges abnormal
//     groups into their nearest normal group; MLN weight learning assigns
//     each γ a weight (Eq. 4 prior + diagonal Newton); RSC keeps the γ with
//     the highest reliability score in each group and rewrites the rest.
//  3. Stage II: FSCR fuses each tuple's per-block versions into the
//     assignment with the maximal fusion score (Eq. 5), then duplicate
//     tuples are eliminated.
//
// The input table is not modified.
func Clean(dirty *dataset.Table, rs []*rules.Rule, opts Options) (*Result, error) {
	return CleanContext(context.Background(), dirty, rs, opts)
}

// CleanContext is Clean bounded by a context: the stage pipelines abort
// between blocks once ctx is cancelled and the context's error is returned.
func CleanContext(ctx context.Context, dirty *dataset.Table, rs []*rules.Rule, opts Options) (*Result, error) {
	return CleanEncoded(ctx, dirty, nil, rs, opts)
}

// CleanEncoded is CleanContext for callers that already hold the dirty
// table's dictionary-encoded companion (the streaming CSV ingest encodes
// while parsing): enc must be row-aligned with dirty and is adopted as the
// pipeline's encoding, so the table is never encoded twice. A nil enc
// encodes here.
func CleanEncoded(ctx context.Context, dirty *dataset.Table, enc *dataset.Encoded, rs []*rules.Rule, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if dirty == nil || dirty.Len() == 0 {
		return nil, fmt.Errorf("core: empty input table")
	}
	if id, ok := dirty.RepeatedID(); ok {
		return nil, fmt.Errorf("core: duplicate tuple id %d", id)
	}
	if err := CheckFusionWidth(dirty.Schema, rs); err != nil {
		return nil, err
	}
	st := Stats{Tuples: dirty.Len()}
	// Stage I: blocks stream from the iterator through AGP → learn → RSC, each
	// block's data version cleaned independently (§5.1).
	ix, err := streamStage(ctx, dirty, enc, rs, opts, phaseAll, &st)
	if err != nil {
		return nil, err
	}
	mCleans.Inc()
	mTuples.Add(int64(dirty.Len()))

	repaired, clean, dups := StageII(dirty, ix.Encoded(), FusionBlocksFromIndex(ix), opts, &st)
	return &Result{Clean: clean, Repaired: repaired, Duplicates: dups, Stats: st}, nil
}

// StageII is the pipeline's second stage over stage-I output, shared by the
// stand-alone cleaner and the distributed gather (§6: "conflicts and
// duplicates are eliminated in the same way"): FSCR fuses every tuple's
// versions starting from its dirty row, then exact duplicates are removed
// unless opts.KeepDuplicates. It returns the repaired table (input tuple IDs
// preserved, and the input's own tuple wherever fusion changed nothing), the
// deduplicated table — whose tuples are the repaired table's — and the
// duplicate sets, and adds the fusion and duplicate counters to st. enc
// follows RunFSCREncoded's contract. From FSCR's search to the row set the
// tail works on value IDs; the only strings written are the changed tuples'
// cells.
func StageII(dirty *dataset.Table, enc *dataset.Encoded, blocks []*FusionBlock, opts Options, st *Stats) (repaired, clean *dataset.Table, dups [][]int) {
	repaired, rows := runFSCR(dirty, enc, blocks, opts, st)
	switch {
	case opts.KeepDuplicates:
		return repaired, &dataset.Table{Schema: repaired.Schema, Tuples: repaired.Tuples}, nil
	case rows == nil:
		clean, dups = Dedup(repaired)
	default:
		clean, dups = dedupRows(repaired, rows, hashWords)
	}
	removed := 0
	for _, d := range dups {
		removed += len(d) - 1
	}
	st.DuplicatesRemoved += removed
	mDuplicatesRemoved.Add(int64(removed))
	return repaired, clean, dups
}
