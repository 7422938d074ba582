package core

import (
	"context"
	"reflect"
	"testing"

	"mlnclean/internal/index"
)

// runParityCaseStaged cleans one configuration through the exported
// stage-at-a-time composition — the built-index drivers of the block
// pipeline, exactly what the repository benchmark's staged op and the
// distributed worker's RSC pass are made of.
func runParityCaseStaged(t *testing.T, cfg parityConfig) parityGolden {
	t.Helper()
	dirty, rs, opts, tr := parityInputs(cfg)
	ix, err := index.BuildConfigured(dirty, rs, index.BuildConfig{})
	if err != nil {
		t.Fatalf("%s: BuildConfigured: %v", cfg.Name, err)
	}
	st := Stats{Tuples: dirty.Len(), Blocks: len(ix.Blocks)}
	ctx := context.Background()
	for _, stage := range []func(context.Context, *index.Index, Options, *Stats) error{StageAGP, StageLearn, StageRSC} {
		if err := stage(ctx, ix, opts, &st); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	for _, b := range ix.Blocks {
		st.Groups += len(b.Groups)
	}
	repaired := RunFSCREncoded(dirty, ix.Encoded(), FusionBlocksFromIndex(ix), opts, &st)
	clean, dups := Dedup(repaired)
	for _, d := range dups {
		st.DuplicatesRemoved += len(d) - 1
	}
	return newParityGolden(cfg.Name, repaired, clean, dups, st, tr)
}

// TestFusedStagedParity pins the two kinds of driver over the block pipeline
// to each other, byte for byte, over the full parity matrix: Clean (blocks
// pulled lazily from the iterator, all phases fused per block) against
// BuildConfigured → StageAGP → StageLearn → StageRSC → RunFSCREncoded →
// Dedup (built index, one phase per pass). Same repairs, same clean rows and
// IDs, same duplicate sets, same Stats, same per-phase Trace.
// TestParityGolden separately pins Clean to the pre-refactor goldens, so
// together they prove golden == fused == staged.
//
// The staged side runs in a "planned" subtest: over the one index build,
// the same build Clean pulls its blocks from.
func TestFusedStagedParity(t *testing.T) {
	for _, cfg := range parityConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			fused := runParityCase(t, cfg)
			t.Run("planned", func(t *testing.T) {
				staged := runParityCaseStaged(t, cfg)
				if !reflect.DeepEqual(fused.Stats, staged.Stats) {
					t.Errorf("Stats diverged:\nfused  %+v\nstaged %+v", fused.Stats, staged.Stats)
				}
				compareRows(t, "Repaired", fused.Repaired, staged.Repaired)
				compareRows(t, "Clean", fused.Clean, staged.Clean)
				if !reflect.DeepEqual(fused.CleanIDs, staged.CleanIDs) {
					t.Error("clean tuple IDs diverged")
				}
				if !reflect.DeepEqual(fused.Duplicates, staged.Duplicates) {
					t.Errorf("duplicate sets diverged:\nfused  %v\nstaged %v", fused.Duplicates, staged.Duplicates)
				}
				if !reflect.DeepEqual(fused.AGP, staged.AGP) {
					t.Errorf("AGP trace diverged (%d vs %d merges)", len(fused.AGP), len(staged.AGP))
				}
				if !reflect.DeepEqual(fused.RSC, staged.RSC) {
					t.Errorf("RSC trace diverged (%d vs %d repairs)", len(fused.RSC), len(staged.RSC))
				}
				if !reflect.DeepEqual(fused.FSCR, staged.FSCR) {
					t.Errorf("FSCR trace diverged (%d vs %d outcomes)", len(fused.FSCR), len(staged.FSCR))
				}
			})
		})
	}
}
