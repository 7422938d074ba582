package wal

import "mlnclean/internal/obs"

var (
	mAppendSeconds = obs.Default().Histogram("mlnclean_wal_append_seconds",
		"Wall time of one durable append (frame write + fsync).", obs.DefBuckets)
	mFsyncSeconds = obs.Default().Histogram("mlnclean_wal_fsync_seconds",
		"Wall time of the fsync inside an append.", obs.DefBuckets)
	mCompactSeconds = obs.Default().Histogram("mlnclean_wal_compaction_seconds",
		"Wall time of one snapshot/compaction cycle.", obs.DefBuckets)
	mAppends = obs.Default().Counter("mlnclean_wal_appends_total",
		"Acknowledged WAL appends.")
	mAppendBytes = obs.Default().Counter("mlnclean_wal_append_bytes_total",
		"Framed bytes written by acknowledged appends.")
	mCompactions = obs.Default().Counter("mlnclean_wal_compactions_total",
		"Completed snapshot/compaction cycles.")
	mOpens = obs.Default().Counter("mlnclean_wal_opens_total",
		"Log opens (each implies a recovery scan).")
	mRecoveryRecords = obs.Default().Counter("mlnclean_wal_recovery_records_total",
		"Records replayed across all recoveries.")
	mRecoveryTruncated = obs.Default().Counter("mlnclean_wal_recovery_truncated_bytes_total",
		"Bytes cut from corrupt or orphaned log tails during recovery.")
)
