package distributed

import "mlnclean/internal/obs"

var (
	mRuns = obs.Default().Counter("mlnclean_executor_runs_total",
		"Completed distributed cleaning runs.")
	mRunSeconds = obs.Default().Histogram("mlnclean_executor_run_seconds",
		"End-to-end wall time of a distributed run (partitioning through gather).", obs.DefBuckets)
	mBatchSendSeconds = obs.Default().Histogram("mlnclean_executor_batch_send_seconds",
		"Per-chunk coordinator-to-worker batch send latency.", obs.DefBuckets)
	mIngestSeconds = obs.Default().Histogram("mlnclean_executor_ingest_seconds",
		"Coordinator ingest time: executor creation until every partition's stage I is dispatched (intern + partition + ship).", obs.DefBuckets)
	mGatherSeconds = obs.Default().Histogram("mlnclean_executor_gather_seconds",
		"Coordinator gather time (Eq. 6 reduce + global FSCR + dedup).", obs.DefBuckets)
	mWorkerStageI = obs.Default().Histogram("mlnclean_executor_worker_stage_seconds",
		"Per-worker measured stage time as reported in protocol replies.", obs.DefBuckets, obs.L("stage", "1"))
	mWorkerStageII = obs.Default().Histogram("mlnclean_executor_worker_stage_seconds",
		"", obs.DefBuckets, obs.L("stage", "2"))
	mSendBytes = obs.Default().Counter("mlnclean_transport_send_bytes_total",
		"Serialized message bytes produced for the wire (gob/HTTP transports).")
	mRecvBytes = obs.Default().Counter("mlnclean_transport_recv_bytes_total",
		"Serialized message bytes decoded off the wire (gob/HTTP transports).")
)
