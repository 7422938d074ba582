package distributed

import (
	"context"
	"fmt"
	"io"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/rules"
)

// Options configures a distributed cleaning run.
type Options struct {
	// Workers is the number of worker goroutines (default 4).
	Workers int
	// Core carries the per-worker stand-alone pipeline options.
	Core core.Options
	// Seed drives centroid selection.
	Seed int64
	// SkipWeightMerge disables the Eq. 6 cross-worker weight adjustment
	// (for the ablation bench).
	SkipWeightMerge bool
	// Transport is accepted and never read; ROADMAP 25 (a) deletes it.
	Transport string
	// BatchSize is how many streamed tuples CleanStream's online
	// partitioner reads between two assignments (default 1024). Its
	// centroids are drawn at the first of these flushes, so the cadence is
	// part of the partition.
	BatchSize int
}

// Result is the distributed cleaning output.
type Result struct {
	// Clean is the final gathered dataset, duplicates removed.
	Clean *dataset.Table
	// Repaired is the gathered table before duplicate elimination, tuple
	// IDs preserved from the input.
	Repaired *dataset.Table
	// PartSizes lists the tuples per worker partition.
	PartSizes []int
	// WorkerTimes holds each worker's measured time for both of its phases.
	// Workers run concurrently, so these include whatever contention the
	// host's cores impose; ClusterTime stays the hardware-independent model
	// on top.
	WorkerTimes []time.Duration
	// WorkerStageITimes/WorkerStageIITimes break WorkerTimes into its two
	// measured phases (index build + AGP + learning vs applying the merged
	// weights + RSC), so callers can reproduce the per-phase runtime tables
	// without re-running. A part fuses nothing: FSCR runs once, in the
	// gather, and GatherTime holds it.
	WorkerStageITimes  []time.Duration
	WorkerStageIITimes []time.Duration
	// PartitionDistTime is the map-side distance-matrix phase of Alg. 3;
	// PartitionHeapTime is its sequential driver-side heap assignment.
	PartitionDistTime time.Duration
	PartitionHeapTime time.Duration
	// GatherTime covers the weight merge plus the run's one stage II: the
	// global conflict resolution and deduplication.
	GatherTime time.Duration
	// WallTime is the measured end-to-end wall-clock time of the concurrent
	// run (partitioning through gather). Unlike ClusterTime it depends on
	// the host's core count.
	WallTime time.Duration
	// Workers is the worker count the run used.
	Workers int
	// WorkersLost is always 0: a part that fails ends the run with an
	// error, so a returned Result lost none. It stays only because the
	// repository benchmark reads it; ROADMAP 25 (a) deletes it.
	WorkersLost int
	// Stats aggregates the worker pipelines' stats.
	Stats core.Stats
	// RunID is a fresh tag minted for the run.
	RunID string
}

// ClusterTime models the run time on an ideal cluster where every worker is
// its own node and map/reduce-style phases distribute:
//
//	distance-matrix/k + heap assignment + max(worker) + gather/k
//
// The host's core count would otherwise cap any measured speedup (the paper
// runs on an 11-node cluster); the model removes the partition/gather
// serialization from the estimate. Since workers now run concurrently,
// max(worker) is measured under whatever contention the host imposes: on a
// host with at least k free cores the model approximates the paper's
// Fig. 15 / Table 6 scaling shape, on smaller hosts it understates the
// ideal-cluster speedup. Stage II (FSCR + deduplication) runs once, in the
// gather, and is charged as gather/k. WallTime is the measured concurrent
// counterpart. See README › Deviations from the paper.
func (r *Result) ClusterTime() time.Duration {
	var maxW time.Duration
	for _, w := range r.WorkerTimes {
		if w > maxW {
			maxW = w
		}
	}
	k := time.Duration(r.Workers)
	if k < 1 {
		k = 1
	}
	return r.PartitionDistTime/k + r.PartitionHeapTime + maxW + r.GatherTime/k
}

// Clean runs distributed MLNClean (§6): partition with Algorithm 3, take
// every part through stage I and RSC concurrently — interleaving the Eq. 6
// weight merge between weight learning and RSC — and gather the parts into
// the run's one stage II, resolving conflicts with a global FSCR pass and
// removing duplicates exactly like the stand-alone cleaner.
func Clean(dirty *dataset.Table, rs []*rules.Rule, opts Options) (*Result, error) {
	return CleanContext(context.Background(), dirty, rs, opts)
}

// CleanContext is Clean bounded by a context: cancelling ctx aborts the run
// promptly with ctx's error, once every part's goroutine has returned.
func CleanContext(ctx context.Context, dirty *dataset.Table, rs []*rules.Rule, opts Options) (*Result, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if dirty == nil || dirty.Len() == 0 {
		return nil, fmt.Errorf("distributed: empty input table")
	}
	if id, ok := dirty.RepeatedID(); ok {
		return nil, fmt.Errorf("distributed: duplicate tuple id %d", id)
	}
	start := time.Now()

	c, err := newCoordinator(dirty.Schema, rs, opts, min(opts.Workers, dirty.Len()))
	if err != nil {
		return nil, err
	}
	distTime, heapTime, err := c.partitionTable(dirty)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workers:           c.k,
		PartitionDistTime: distTime,
		PartitionHeapTime: heapTime,
	}
	res, err = c.finish(ctx, dirty, res)
	if err != nil {
		return nil, err
	}
	res.WallTime = time.Since(start)
	return res, nil
}

// CleanStream runs distributed MLNClean over a row stream: tuples are read
// in Options.BatchSize chunks and fed to the online partitioner (the
// streaming relaxation of Algorithm 3, stream.go), so the raw table is never
// held — only the interned copy every run keeps for the global FSCR pass.
// Tuples are IDed sequentially in stream order. Deterministic given the seed
// and the stream's row order; note the online partitioner may split the
// table differently than Clean's exact Algorithm 3, so the two entry points
// are separately deterministic, not interchangeable.
func CleanStream(ctx context.Context, stream dataset.RowStream, rs []*rules.Rule, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = 1024
	}
	c, err := newCoordinator(stream.Schema(), rs, opts, opts.Workers)
	if err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		row, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err == nil {
			_, err = c.senc.Append(row)
		}
		if err != nil {
			return nil, err
		}
		if n%batchSize == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c.flush()
		}
	}
	if c.senc.Table().Len() == 0 {
		return nil, fmt.Errorf("distributed: empty input table")
	}
	c.assign()
	res := &Result{
		Workers:           c.k,
		PartitionDistTime: c.distTime,
		PartitionHeapTime: c.assignTime,
	}
	res, err = c.finish(ctx, c.senc.Table(), res)
	if err != nil {
		return nil, err
	}
	res.WallTime = time.Since(start)
	return res, nil
}

// TransportByName accepts the transport names "", "chan", "gob" and "http"
// and rejects any other. The name is accepted and never read; ROADMAP
// 25 (a) deletes it.
func TransportByName(name string) (string, error) {
	switch name {
	case "", "chan", "gob", "http":
		return name, nil
	default:
		return "", fmt.Errorf("distributed: unknown transport %q (chan|gob|http)", name)
	}
}

// workerTauOpts scales the AGP threshold to partition-local group sizes: a
// group of n tuples lands ~n/k of them in each part, so the per-worker τ is
// ⌈τ/k⌉ (never below 1 unless AGP is disabled outright).
func workerTauOpts(o core.Options, workers int) core.Options {
	if o.TauSet && o.Tau == 0 {
		return o
	}
	tau := o.Tau
	if tau <= 0 {
		tau = 1
	}
	scaled := (tau + workers - 1) / workers
	if scaled < 1 {
		scaled = 1
	}
	o.Tau = scaled
	o.TauSet = true
	return o
}

// metricOf is the distance the partitioners measure with: the run's
// configured metric, or the default core.Options applies when none is set
// (Levenshtein, the paper's).
func metricOf(o core.Options) distance.Metric {
	if o.Metric != nil {
		return o.Metric
	}
	return distance.Levenshtein{}
}
