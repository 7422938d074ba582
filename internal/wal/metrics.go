package wal

import "mlnclean/internal/obs"

var (
	mFsyncSeconds = obs.Default().Histogram("mlnclean_wal_fsync_seconds",
		"Wall time of the fsync inside an append; its count is the appends acknowledged.", obs.DefBuckets)
	mAppendBytes = obs.Default().Counter("mlnclean_wal_append_bytes_total",
		"Framed bytes written by acknowledged appends.")
	mCompactions = obs.Default().Counter("mlnclean_wal_compactions_total",
		"Completed snapshot/compaction cycles.")
	mRecoveryRecords = obs.Default().Counter("mlnclean_wal_recovery_records_total",
		"Records replayed across all recoveries.")
	mRecoveryTruncated = obs.Default().Counter("mlnclean_wal_recovery_truncated_bytes_total",
		"Bytes cut from corrupt or orphaned log tails during recovery.")
)
