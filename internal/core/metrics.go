package core

import (
	"runtime"

	"mlnclean/internal/obs"
)

// Package-level instruments, registered at init so a scrape shows the whole
// core family (zero-valued) before any clean runs. All are process-global:
// concurrent cleans (mlnserve sessions, distributed workers in-process)
// accumulate into the same series, which is what a per-node scrape wants.
var (
	mStageAGP = obs.Default().Histogram("mlnclean_core_stage_seconds",
		"Wall time of one stage-I phase on each block's owner, summed over the blocks of one driver call; for fscr, wall time of one fusion pass.", obs.DefBuckets, obs.L("stage", "agp"))
	mStageLearn = obs.Default().Histogram("mlnclean_core_stage_seconds",
		"", obs.DefBuckets, obs.L("stage", "learn"))
	mStageRSC = obs.Default().Histogram("mlnclean_core_stage_seconds",
		"", obs.DefBuckets, obs.L("stage", "rsc"))
	mStageFSCR = obs.Default().Histogram("mlnclean_core_stage_seconds",
		"", obs.DefBuckets, obs.L("stage", "fscr"))
	mBlockSeconds = obs.Default().Histogram("mlnclean_core_block_seconds",
		"Time one block spent in its stage-I phases, one observation per runBlock or delta re-clean call.", obs.DefBuckets)
	mCleans = obs.Default().Counter("mlnclean_core_cleans_total",
		"Completed end-to-end cleaning runs.")
	mTuples = obs.Default().Counter("mlnclean_core_tuples_total",
		"Tuples cleaned across all runs.")
	mAbnormalGroups = obs.Default().Counter("mlnclean_core_agp_abnormal_groups_total",
		"Abnormal groups detected by AGP.")
	mAGPMerges = obs.Default().Counter("mlnclean_core_agp_merges_total",
		"Abnormal groups merged into a normal group.")
	mAGPPromotions = obs.Default().Counter("mlnclean_core_agp_promotions_total",
		"Abnormal groups promoted to normal (no merge target).")
	mAGPPairs = obs.Default().Counter("mlnclean_core_agp_pairs_total",
		"γ⋆ pairs AGP's nearest-group search judged; a pair summed from a source's distance tables may run no distance kernel.")
	mAGPFullScans = obs.Default().Counter("mlnclean_core_agp_full_scans_total",
		"Abnormal groups whose search had to go on to the normal groups they share no value with.")
	mRSCRewrites = obs.Default().Counter("mlnclean_core_rsc_rewrites_total",
		"Pieces rewritten by reliability-score cleaning.")
	mLearnIterations = obs.Default().Counter("mlnclean_core_learn_iterations_total",
		"Newton steps learning MLN weights: per block, the most steps on t that any of its groups took.")
	mFSCRCellChanges = obs.Default().Counter("mlnclean_core_fscr_cell_changes_total",
		"Cells changed by fusion-score conflict resolution.")
	mFSCRConflicts = obs.Default().Counter("mlnclean_core_fscr_conflicts_total",
		"Tuples whose every fusion order conflicted out.")
	mFSCRTruncated = obs.Default().Counter("mlnclean_core_fscr_truncated_total",
		"Tuples whose fusion search hit the state cap in some component.")
	mDuplicatesRemoved = obs.Default().Counter("mlnclean_core_duplicates_removed_total",
		"Duplicate tuples eliminated after fusion.")

	// Delta family: how much work incremental re-cleaning does versus reuses.
	// The dirty/reused and refused/reused pairs partition each Apply's blocks
	// and tuples, so the reuse ratio is readable straight off a scrape.
	mDeltaLoads = obs.Default().Counter("mlnclean_core_delta_loads_total",
		"Full-clean seeds of an incremental delta engine.")
	mDeltaDirtyBlocks = obs.Default().Counter("mlnclean_core_delta_dirty_blocks_total",
		"Rule blocks edited and re-cleaned by incremental applies.")
	mDeltaReusedBlocks = obs.Default().Counter("mlnclean_core_delta_reused_blocks_total",
		"Rule blocks served from cache by incremental applies.")
	mDeltaRefusedTuples = obs.Default().Counter("mlnclean_core_delta_refused_tuples_total",
		"Tuples re-fused by incremental applies.")
	mDeltaReusedTuples = obs.Default().Counter("mlnclean_core_delta_reused_tuples_total",
		"Tuples whose cached fusion outcome incremental applies reused.")
	mDeltaSeconds = obs.Default().Histogram("mlnclean_core_delta_apply_seconds",
		"Wall time of one incremental mutation batch, mutation to new result; its count is the batches applied.", obs.DefBuckets)

	// The mlnclean_mem_* family makes the pipeline's memory behavior
	// observable live: how many blocks are being cleaned and the process's
	// live heap.
	mBlocksInFlight = obs.Default().Gauge("mlnclean_mem_blocks_inflight",
		"Blocks inside the stage-I block pipeline (runBlock or a delta re-clean) right now.")
)

func init() {
	obs.Default().GaugeFunc("mlnclean_mem_heap_live_bytes",
		"Live heap bytes (runtime.ReadMemStats HeapAlloc), sampled at scrape time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}
