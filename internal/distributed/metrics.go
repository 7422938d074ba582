package distributed

import "mlnclean/internal/obs"

var (
	mRuns = obs.Default().Counter("mlnclean_executor_runs_total",
		"Completed distributed cleaning runs.")
	mRunSeconds = obs.Default().Histogram("mlnclean_executor_run_seconds",
		"End-to-end wall time of a distributed run (partitioning through gather).", obs.DefBuckets)
	mIngestSeconds = obs.Default().Histogram("mlnclean_executor_ingest_seconds",
		"Coordinator ingest time: run start until the parts start cleaning (intern + partition).", obs.DefBuckets)
	mGatherSeconds = obs.Default().Histogram("mlnclean_executor_gather_seconds",
		"Coordinator gather time (Eq. 6 reduce + global FSCR + dedup).", obs.DefBuckets)
	mWorkerStageI = obs.Default().Histogram("mlnclean_executor_worker_stage_seconds",
		"Per-part measured stage time (1: index + AGP + learning, 2: merged weights + RSC).", obs.DefBuckets, obs.L("stage", "1"))
	mWorkerStageII = obs.Default().Histogram("mlnclean_executor_worker_stage_seconds",
		"", obs.DefBuckets, obs.L("stage", "2"))
)
