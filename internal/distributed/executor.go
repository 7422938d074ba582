package distributed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/obs"
	"mlnclean/internal/rules"
)

// Executor is the concurrent distributed runtime: k logical partitions, each
// cleaned by its own worker goroutine running the stand-alone stage-I/II
// pipeline, coordinated exclusively through a Transport. Worker slot w serves
// partition w for the whole run. The coordinator streams partition batches
// down, reduces the workers' Eq. 6 piece summaries, broadcasts the merged
// weights, and gathers the workers' fusion blocks for the global
// conflict-resolution pass.
//
// Failure handling: nothing is re-run. A worker error, a worker goroutine
// that exits before its final reply, a cancelled context and a send that
// passes sendBound each end the run with an error. All four abort the same
// way, by closing the transport, which fails every blocked call on both
// sides; runErr then names the cause.
//
// Two ingestion paths share the runtime:
//
//   - Clean partitions a whole table with Algorithm 3 (heap-balanced,
//     eviction-based) and ships each part in batches.
//   - Submit streams batches through an online relaxation of Algorithm 3:
//     centroids are drawn from the first k tuples seen, and each tuple goes
//     to the nearest centroid whose partition is under the running capacity
//     ⌈seen/k⌉ — no retrospective eviction, so shipped tuples never move.
type Executor struct {
	ctx    context.Context
	schema *dataset.Schema
	rs     []*rules.Rule
	opts   Options
	k      int
	tr     Transport
	rng    *rand.Rand

	// senc accumulates every submitted tuple (re-IDed sequentially) and its
	// dictionary-encoded row; the global FSCR fuses from these original dirty
	// values, and reuses the same dictionary for the wire pieces. Partitions
	// are never materialized coordinator-side — batches ship as they arrive.
	senc      *dataset.StreamEncoder
	dict      *intern.Dict
	ev        *distance.Evaluator
	centroids [][]uint32
	loads     []int
	shipped   int // gather tuples already assigned and shipped

	// The streaming partitioner's distance table. Centroids are fixed once
	// drawn, so the distance from a value to centroid w's cell in the value's
	// own column is a function of (value ID, w): centDist holds k slots per
	// value ID, measured when the ID is first met, and centHome the column
	// (+1) they were measured against. A value met again in another column is
	// the evaluator's business (Pair, memoized).
	centHome []int32
	centDist []float64

	distTime   time.Duration
	assignTime time.Duration
	createdAt  time.Time

	workerWG  sync.WaitGroup
	workerMu  sync.Mutex
	workerErr error         // first error a worker goroutine exited with
	stop      chan struct{} // closed once the run ends; releases the ctx watcher
	stopOnce  sync.Once
	finished  bool
	err       error
}

// sendBound bounds every coordinator→worker send. It trips only when a
// worker stops draining its inbox entirely; the run then ends with
// ErrTimeout.
const sendBound = time.Minute

// NewExecutor starts opts.Workers workers (default 4) for streaming ingest
// via Submit followed by Run. Whole-table runs should use Clean, which adds
// the exact Algorithm 3 partitioning on top of the same runtime.
func NewExecutor(schema *dataset.Schema, rs []*rules.Rule, opts Options) (*Executor, error) {
	return NewExecutorContext(context.Background(), schema, rs, opts)
}

// NewExecutorContext is NewExecutor bound to a context: cancelling ctx tears
// the transport down, unblocking every worker goroutine and failing any
// in-flight Submit/Run, so an abandoned run releases its goroutines without
// an explicit Close.
func NewExecutorContext(ctx context.Context, schema *dataset.Schema, rs []*rules.Rule, opts Options) (*Executor, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	return newExecutor(ctx, schema, rs, opts, opts.Workers)
}

func newExecutor(ctx context.Context, schema *dataset.Schema, rs []*rules.Rule, opts Options, k int) (*Executor, error) {
	if schema == nil {
		return nil, fmt.Errorf("distributed: nil schema")
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("distributed: no rules")
	}
	if err := core.CheckFusionWidth(schema, rs); err != nil {
		return nil, err
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 1024
	}
	factory := opts.Transport
	if factory == nil {
		factory = NewChanTransport
	}
	dict := intern.NewDict()
	// The run ID rides inside the core options so the workers' log lines
	// carry it too.
	opts.Core.RunID = obs.NewRunID()
	ex := &Executor{
		ctx:       ctx,
		schema:    schema,
		rs:        rs,
		opts:      opts,
		k:         k,
		tr:        factory(k),
		rng:       rand.New(rand.NewSource(opts.Seed)),
		senc:      dataset.NewStreamEncoder(schema, dict),
		dict:      dict,
		ev:        distance.NewEvaluator(metricOf(opts.Core), dict),
		loads:     make([]int, k),
		stop:      make(chan struct{}),
		createdAt: time.Now(),
	}
	// The watcher propagates cancellation by closing the transport (safe from
	// any goroutine, as workerFailed relies on too); every blocked transport
	// call then fails and the workers drain out.
	go func() {
		select {
		case <-ctx.Done():
			ex.tr.Close()
		case <-ex.stop:
		}
	}()
	wopts := workerCoreOpts(opts.Core, k)
	// A transport may override what its workers talk through: chan/gob
	// workers use the coordinator value directly, the loopback HTTP transport
	// hands out a client bound to its URL.
	var link workerLink = ex.tr
	if h, ok := ex.tr.(workerHoster); ok {
		link = h.LocalWorkerTransport()
	}
	init := Init{SchemaAttrs: schema.Attrs(), Rules: rulesToWire(rs)}
	for w := 0; w < k; w++ {
		ex.workerWG.Add(1)
		go func() {
			defer ex.workerWG.Done()
			if err := workerMain(ctx, link, w, wopts); err != nil {
				ex.workerFailed(w, err)
			}
		}()
		init.Worker = w
		if err := ex.tr.ToWorkerDeadline(w, init, sendBound); err != nil {
			return nil, ex.fail(err)
		}
	}
	return ex, nil
}

// workerFailed ends the run for a worker goroutine that returned before its
// final reply: it records the first such error, naming the partition, then
// closes the transport — the ctx watcher's abort — so the coordinator's
// blocked call fails and runErr reports this error.
func (ex *Executor) workerFailed(p int, err error) {
	ex.workerMu.Lock()
	if ex.workerErr == nil {
		ex.workerErr = fmt.Errorf("distributed: worker for partition %d: %w", p, err)
	}
	ex.workerMu.Unlock()
	ex.tr.Close()
}

// workerCoreOpts derives the per-worker pipeline options: τ scaled to
// partition-local group sizes, and the block-level parallelism budget split
// across the k concurrent workers so the pool doesn't oversubscribe the
// host.
func workerCoreOpts(o core.Options, workers int) core.Options {
	o = workerTauOpts(o, workers)
	if o.Parallelism <= 0 {
		par := runtime.NumCPU() / workers
		if par < 1 {
			par = 1
		}
		o.Parallelism = par
	}
	return o
}

// accepting reports why the executor takes no more input: a recorded
// failure, a cancelled context, or a run already finished.
func (ex *Executor) accepting() error {
	if ex.err != nil {
		return ex.err
	}
	if err := ex.ctx.Err(); err != nil {
		return ex.fail(err)
	}
	if ex.finished {
		return fmt.Errorf("distributed: executor already ran")
	}
	return nil
}

// Submit streams one batch of dirty tuples into the executor, assigning each
// tuple to a partition online and shipping the assignments immediately.
// Tuples are re-IDed sequentially across batches. Deterministic given the
// seed and the batch sequence.
func (ex *Executor) Submit(batch *dataset.Table) error {
	if err := ex.accepting(); err != nil {
		return err
	}
	if batch == nil || batch.Len() == 0 {
		return nil
	}
	if !batch.Schema.Equal(ex.schema) {
		return fmt.Errorf("distributed: batch schema does not match executor schema")
	}
	for _, t := range batch.Tuples {
		if _, err := ex.senc.Append(t.Values); err != nil {
			return ex.fail(err) // part of the batch is in: not what the caller thinks it holds
		}
	}
	return ex.flush()
}

// flush assigns and ships the tuples appended to senc since the last flush,
// once there are enough of them to draw centroids from.
func (ex *Executor) flush() error {
	if err := ex.accepting(); err != nil {
		return err
	}
	if ex.centroids == nil && ex.senc.Table().Len() < ex.k {
		return nil // keep buffering until k centroid candidates exist
	}
	return ex.assignAndShip()
}

// assignAndShip assigns every not-yet-shipped gather tuple to a partition
// and ships the new assignments, one TupleBatch per worker.
func (ex *Executor) assignAndShip() error {
	tuples, rows := ex.senc.Table().Tuples, ex.senc.Encoded().Rows
	if ex.shipped >= len(rows) {
		return nil
	}
	if ex.centroids == nil {
		// Draw centroids from the tuples seen so far (the streaming analogue
		// of Algorithm 3's random distinct centroids).
		n := len(rows)
		kk := ex.k
		if kk > n {
			kk = n
		}
		perm := ex.rng.Perm(n)
		ex.centroids = make([][]uint32, ex.k)
		for i := 0; i < kk; i++ {
			ex.centroids[i] = rows[perm[i]]
		}
		for i := kk; i < ex.k; i++ {
			ex.centroids[i] = ex.centroids[0] // degenerate: fewer tuples than workers
		}
	}
	t0 := time.Now()
	dists := ex.centroidDistances(rows[ex.shipped:])
	t1 := time.Now()
	ex.distTime += t1.Sub(t0)
	batches := make([]TupleBatch, ex.k)
	for ; ex.shipped < len(rows); ex.shipped++ {
		d := dists[:ex.k]
		dists = dists[ex.k:]
		// Running capacity ⌈(assigned+1)/k⌉ keeps partitions balanced; at
		// least one worker is always under it.
		capacity := (ex.shipped + ex.k) / ex.k
		best := -1
		for w := 0; w < ex.k; w++ {
			if ex.loads[w] >= capacity {
				continue
			}
			if best == -1 || d[w] < d[best] {
				best = w
			}
		}
		ex.loads[best]++
		t := tuples[ex.shipped]
		batches[best].IDs = append(batches[best].IDs, t.ID)
		batches[best].Rows = append(batches[best].Rows, t.Values)
	}
	ex.assignTime += time.Since(t1)
	for p := range batches {
		if len(batches[p].IDs) == 0 {
			continue
		}
		if err := ex.shipBatched(p, batches[p]); err != nil {
			return err
		}
	}
	return nil
}

// valuesBound is where Evaluator.Values stops summing; centroidDistances
// stops there too, so a custom metric's huge distance yields the same bits.
const valuesBound = math.MaxInt32

// centroidDistances returns each row's distance to every centroid, k per
// row: bit for bit ev.Values(row, centroid) — the same exact per-cell
// distances summed in attribute order — read from the distance table.
func (ex *Executor) centroidDistances(rows [][]uint32) []float64 {
	k := ex.k
	dists := make([]float64, len(rows)*k)
	out := dists
	if n := ex.dict.Len(); n > len(ex.centHome) {
		n = max(n, 2*len(ex.centHome))
		ex.centHome = append(make([]int32, 0, n), ex.centHome...)[:n]
		ex.centDist = append(make([]float64, 0, n*k), ex.centDist...)[:n*k]
	}
	for _, row := range rows {
		for j, id := range row {
			if ex.centHome[id] != 0 {
				continue
			}
			ex.centHome[id] = int32(j) + 1
			for w, c := range ex.centroids {
				ex.centDist[int(id)*k+w] = ex.ev.Exact(id, c[j])
			}
		}
		for w, c := range ex.centroids {
			var sum float64
			for j, id := range row {
				if ex.centHome[id] == int32(j)+1 {
					sum += ex.centDist[int(id)*k+w]
				} else {
					sum += ex.ev.Pair(id, c[j])
				}
				if sum > valuesBound {
					break
				}
			}
			out[w] = sum
		}
		out = out[k:]
	}
	return dists
}

// shipBatched sends partition p's assignment to its worker in BatchSize
// chunks. A failed send ends the run.
func (ex *Executor) shipBatched(p int, b TupleBatch) error {
	size := ex.opts.BatchSize
	for lo := 0; lo < len(b.IDs); lo += size {
		hi := min(lo+size, len(b.IDs))
		t0 := time.Now()
		if err := ex.tr.ToWorkerDeadline(p, TupleBatch{Worker: p, IDs: b.IDs[lo:hi], Rows: b.Rows[lo:hi]}, sendBound); err != nil {
			return ex.fail(err)
		}
		mBatchSendSeconds.ObserveSince(t0)
	}
	return nil
}

// Run completes a streaming ingest: flushes any buffered tuples, drives the
// workers through both stages, and gathers the result.
func (ex *Executor) Run() (*Result, error) {
	if err := ex.accepting(); err != nil {
		return nil, err
	}
	if ex.senc.Table().Len() == 0 {
		return nil, ex.fail(fmt.Errorf("distributed: empty input table"))
	}
	if err := ex.assignAndShip(); err != nil {
		return nil, err
	}
	res := &Result{
		Workers:           ex.k,
		PartitionDistTime: ex.distTime,
		PartitionHeapTime: ex.assignTime,
	}
	return ex.finish(ex.senc.Table(), res)
}

// fail records the first error, as runErr names it, and shuts the run down.
// It returns the recorded error.
func (ex *Executor) fail(err error) error {
	if ex.err == nil {
		ex.err = ex.runErr(err)
	}
	ex.shutdown()
	return ex.err
}

// shutdown ends the run: it releases the ctx watcher, tears the transport
// down so every worker unblocks, and waits for the worker goroutines.
func (ex *Executor) shutdown() {
	ex.finished = true
	ex.stopOnce.Do(func() { close(ex.stop) })
	ex.tr.Close()
	ex.workerWG.Wait()
}

// runErr names why the run ended: the context's error first, then the
// first worker's exit, and only then err — which, after either of those,
// is just the bare transport error their abort caused.
func (ex *Executor) runErr(err error) error {
	if ctxErr := ex.ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	ex.workerMu.Lock()
	defer ex.workerMu.Unlock()
	if ex.workerErr != nil {
		return ex.workerErr
	}
	return err
}

// Close abandons an executor that will not be Run, releasing its worker
// goroutines. Safe to call after Run (a no-op then).
func (ex *Executor) Close() {
	if ex.finished {
		return
	}
	ex.fail(fmt.Errorf("distributed: executor closed"))
}

// finish drives the two-phase protocol to completion: stage I on every
// worker, the Eq. 6 reduce + broadcast, stage II on every worker, then the
// global gather (FSCR over the original dirty tuples + deduplication).
func (ex *Executor) finish(dirty *dataset.Table, res *Result) (*Result, error) {
	defer ex.shutdown()
	for w := 0; w < ex.k; w++ {
		if err := ex.tr.ToWorkerDeadline(w, StartStageI{Worker: w}, sendBound); err != nil {
			return nil, ex.fail(err)
		}
	}
	mIngestSeconds.ObserveSince(ex.createdAt)
	sums := make([]WeightSummaries, ex.k)
	err := ex.gather(func(p int, m Message) error {
		ws, ok := m.(WeightSummaries)
		if !ok {
			return fmt.Errorf("distributed: protocol: expected WeightSummaries, got %T", m)
		}
		sums[p] = ws
		return nil
	})
	if err != nil {
		return nil, ex.fail(err)
	}

	// Eq. 6: reduce the workers' piece summaries to support-weighted mean
	// weights — w(γ) = Σ nᵢ·wᵢ / Σ nᵢ — so sparse local evidence borrows
	// support from the other parts. A pure reduce over shipped summaries:
	// no worker index state is touched from the coordinator.
	t0 := time.Now()
	var merged []index.PieceSummary
	if !ex.opts.SkipWeightMerge {
		per := make([][]index.PieceSummary, ex.k)
		for w := range sums {
			per[w] = sums[w].Summaries
		}
		merged = reducePieceWeights(per)
	}
	res.GatherTime += time.Since(t0)
	for w := 0; w < ex.k; w++ {
		if err := ex.tr.ToWorkerDeadline(w, MergedWeights{Worker: w, Merged: merged}, sendBound); err != nil {
			return nil, ex.fail(err)
		}
	}

	frs := make([]FusionResult, ex.k)
	err = ex.gather(func(p int, m Message) error {
		fr, ok := m.(FusionResult)
		if !ok {
			return fmt.Errorf("distributed: protocol: expected FusionResult, got %T", m)
		}
		frs[p] = fr
		return nil
	})
	if err != nil {
		return nil, ex.fail(err)
	}

	res.WorkerTimes = make([]time.Duration, ex.k)
	res.WorkerStageITimes = make([]time.Duration, ex.k)
	res.WorkerStageIITimes = make([]time.Duration, ex.k)
	res.PartSizes = make([]int, ex.k)
	for w := 0; w < ex.k; w++ {
		res.WorkerStageITimes[w] = time.Duration(sums[w].ElapsedNS)
		res.WorkerStageIITimes[w] = time.Duration(frs[w].ElapsedNS)
		res.WorkerTimes[w] = res.WorkerStageITimes[w] + res.WorkerStageIITimes[w]
		res.PartSizes[w] = frs[w].PartSize
		res.Stats.Add(frs[w].Stats)
		mWorkerStageI.ObserveDuration(res.WorkerStageITimes[w])
		mWorkerStageII.ObserveDuration(res.WorkerStageIITimes[w])
	}
	res.RunID = ex.opts.Core.RunID

	// Gather (§6: "conflicts and duplicates are eliminated in the same way
	// to stand-alone MLNClean"): run a global conflict resolution over the
	// union of all workers' blocks and deduplicate. The global FSCR fuses
	// from the ORIGINAL dirty tuples — the union blocks already carry every
	// worker's stage-I repairs, and fusing from the per-part FSCR outputs
	// would move the observation baseline of the minimality prior, letting
	// compounding double-fusions through. The per-part FSCR outputs remain
	// what each worker would ship alone (and what WorkerTimes measures); the
	// run's fusion and duplicate counters come from this pass alone, the one
	// whose table is returned.
	t0 = time.Now()
	blocks := unionWireBlocks(frs, ex.rs, ex.dict)
	// The gather rows were interned at Submit; hand them to FSCR instead of
	// re-encoding the whole accumulated dataset on the finish path.
	res.Repaired, res.Clean, _ = core.StageII(dirty, ex.senc.Encoded(), blocks, ex.opts.Core, &res.Stats)
	res.GatherTime += time.Since(t0)
	res.WallTime = time.Since(ex.createdAt)
	mRuns.Inc()
	mRunSeconds.ObserveDuration(time.Since(ex.createdAt))
	mGatherSeconds.ObserveDuration(res.GatherTime)
	return res, nil
}

// gather blocks until every partition has replied, handing each reply to
// handle. A reply carrying a worker error ends the run.
func (ex *Executor) gather(handle func(p int, m Message) error) error {
	replied := make([]bool, ex.k)
	for n := 0; n < ex.k; {
		m, err := ex.tr.CoordinatorRecv()
		if err != nil {
			return err
		}
		p, werr, ok := replyFrom(m)
		if !ok || p < 0 || p >= ex.k {
			return fmt.Errorf("distributed: protocol: unexpected %T", m)
		}
		if werr != "" {
			return fmt.Errorf("distributed: worker for partition %d: %s", p, werr)
		}
		if err := handle(p, m); err != nil {
			return err
		}
		if !replied[p] {
			replied[p] = true
			n++
		}
	}
	return nil
}

// replyFrom extracts a worker reply's partition and error string.
func replyFrom(m Message) (p int, workerErr string, ok bool) {
	switch msg := m.(type) {
	case WeightSummaries:
		return msg.Worker, msg.Err, true
	case FusionResult:
		return msg.Worker, msg.Err, true
	default:
		return 0, "", false
	}
}

// workerHoster is implemented by transports whose workers do not talk
// through the coordinator value. LocalWorkerTransport returns the link the
// executor's worker goroutines must use instead (the loopback HTTP
// transport hands out a client bound to its URL so every message really
// crosses the wire).
type workerHoster interface {
	LocalWorkerTransport() workerLink
}

// workerLink is the half of a Transport a worker talks through.
type workerLink interface {
	WorkerRecv(w int) (Message, error)
	ToCoordinator(m Message) error
}

// workerMain is worker slot w's receive loop, driven entirely by transport
// messages: set up on Init, ingest partition batches through an incremental
// dictionary encoder, run stage I on StartStageI, apply the merged weights
// and run stage II on MergedWeights, then exit. It returns nil once its
// final reply is sent, and the reason for any other exit.
//
// Ingest is bounded: each TupleBatch is interned on arrival (the partition
// table's values alias the dictionary's canonical strings, so the worker
// holds one copy of every distinct value and never the raw batch slices),
// and stage I streams blocks from an iterator.
func workerMain(ctx context.Context, tr workerLink, w int, opts core.Options) error {
	var (
		schema    *dataset.Schema
		rs        []*rules.Rule
		senc      *dataset.StreamEncoder
		initErr   error
		ingestErr error
		tb        *dataset.Table
		ix        *index.Index
		stats     core.Stats
	)
	for {
		m, err := tr.WorkerRecv(w)
		if err != nil {
			return err
		}
		switch msg := m.(type) {
		case Init:
			if s, err := dataset.NewSchema(msg.SchemaAttrs...); err != nil {
				initErr = err
			} else if r, err := rulesFromWire(msg.Rules); err != nil {
				initErr = err
			} else {
				schema, rs = s, r
				senc = dataset.NewStreamEncoder(schema, nil)
			}
		case TupleBatch:
			if senc == nil || ingestErr != nil {
				continue
			}
			if len(msg.IDs) != len(msg.Rows) {
				ingestErr = fmt.Errorf("protocol: TupleBatch with %d IDs for %d rows", len(msg.IDs), len(msg.Rows))
				continue
			}
			for i, row := range msg.Rows {
				if _, err := senc.AppendID(msg.IDs[i], row); err != nil {
					ingestErr = err
					break
				}
			}
		case StartStageI:
			t0 := time.Now()
			reply := WeightSummaries{Worker: w}
			switch {
			case initErr != nil:
				reply.Err = initErr.Error()
			case ingestErr != nil:
				reply.Err = ingestErr.Error()
			case schema == nil:
				reply.Err = "protocol: StartStageI before Init"
			default:
				tb = senc.Table()
				stats.Tuples = tb.Len()
				// Blocks stream from the iterator with AGP and learning run per
				// block; RSC waits for the merged weights, as the protocol
				// requires.
				var err error
				if ix, err = core.StreamAGPLearn(ctx, tb, senc.Encoded(), rs, opts, &stats); err != nil {
					reply.Err = err.Error()
					break
				}
				reply.Summaries = ix.PieceSummaries()
			}
			reply.ElapsedNS = time.Since(t0).Nanoseconds()
			if err := tr.ToCoordinator(reply); err != nil {
				return err
			}
			if reply.Err != "" {
				return errors.New(reply.Err)
			}
		case MergedWeights:
			if ix == nil {
				err := errors.New("protocol: MergedWeights before stage I")
				tr.ToCoordinator(FusionResult{Worker: w, Err: err.Error()})
				return err
			}
			t0 := time.Now()
			ix.ApplyPieceWeights(msg.Merged)
			if err := core.StageRSC(ctx, ix, opts, &stats); err != nil {
				tr.ToCoordinator(FusionResult{Worker: w, Err: err.Error()})
				return err
			}
			// The local FSCR output is what this worker would ship alone; the
			// coordinator re-derives the final table globally, so the local
			// pass contributes its (timed) cost, as on the real cluster, and
			// nothing else: its fusion counters describe a table nobody is
			// handed, so they stay out of the shipped Stats.
			core.RunFSCREncoded(tb, ix.Encoded(), core.FusionBlocksFromIndex(ix), opts, nil)
			return tr.ToCoordinator(FusionResult{
				Worker:    w,
				PartSize:  tb.Len(),
				Blocks:    blocksToWire(ix),
				Stats:     stats,
				ElapsedNS: time.Since(t0).Nanoseconds(),
			})
		}
	}
}

// reducePieceWeights is the coordinator half of Eq. 6: fold every worker's
// piece summaries (in worker order, for deterministic float accumulation)
// into support-weighted mean weights, emitted sorted by (rule, identity).
func reducePieceWeights(perWorker [][]index.PieceSummary) []index.PieceSummary {
	// A single worker's summaries are already the merged vector; returning
	// them verbatim keeps k=1 bit-identical to the stand-alone pipeline
	// ((n·w)/n can differ from w in the last ulp).
	if len(perWorker) == 1 {
		return index.CopySummaries(perWorker[0])
	}
	type agg struct {
		ruleID, key string
		values      []string
		sumNW, sumN float64
	}
	byKey := make(map[string]*agg)
	var order []string
	for _, sums := range perWorker {
		for _, s := range sums {
			k := summaryAggKey(&s)
			a := byKey[k]
			if a == nil {
				a = &agg{ruleID: s.RuleID, key: s.Key, values: s.IdentityValues()}
				byKey[k] = a
				order = append(order, k)
			}
			n := float64(s.Count)
			a.sumNW += n * s.Weight
			a.sumN += n
		}
	}
	sort.Strings(order)
	out := make([]index.PieceSummary, 0, len(order))
	for _, k := range order {
		a := byKey[k]
		if a.sumN <= 0 {
			continue
		}
		out = append(out, index.PieceSummary{
			RuleID: a.ruleID,
			Key:    a.key,
			Values: a.values,
			Count:  int(a.sumN),
			Weight: a.sumNW / a.sumN,
		})
	}
	return out
}

// summaryAggKey renders a summary's (rule, values) identity as a
// collision-free string key: the rule ID and each value are
// length-prefixed, so no component containing separator or digit bytes can
// alias a differently-split identity the way a plain join would.
func summaryAggKey(s *index.PieceSummary) string {
	var b strings.Builder
	vals := s.IdentityValues()
	n := len(s.RuleID) + 8
	for _, v := range vals {
		n += len(v) + 8
	}
	b.Grow(n)
	fmt.Fprintf(&b, "%d:", len(s.RuleID))
	b.WriteString(s.RuleID)
	for _, v := range vals {
		fmt.Fprintf(&b, "\x00%d:", len(v))
		b.WriteString(v)
	}
	return b.String()
}

// unionWireBlocks builds global FSCR inputs from every worker's shipped
// blocks: per rule, the tuple→piece assignments of all workers plus the
// union of their candidate pieces (deduplicated by interned identity,
// keeping the merged weight). Wire pieces arrive as strings (the transports
// are untouched by the dictionary encoding); the coordinator interns them
// locally into dict, the same dictionary the gather FSCR encodes the dirty
// rows into. Workers are folded in index order so candidate order is
// deterministic regardless of message arrival order.
func unionWireBlocks(frs []FusionResult, rs []*rules.Rule, dict *intern.Dict) []*core.FusionBlock {
	blocks := make([]*core.FusionBlock, len(rs))
	seen := make([]map[uint32]struct{}, len(rs))
	for ri, r := range rs {
		blocks[ri] = &core.FusionBlock{Rule: r, Attrs: r.Attrs(), Versions: make(map[int]*index.Piece)}
		seen[ri] = make(map[uint32]struct{})
	}
	for _, fr := range frs {
		for bi := range fr.Blocks {
			if bi >= len(blocks) {
				continue
			}
			fb := blocks[bi]
			for _, wp := range fr.Blocks[bi].Pieces {
				p := index.NewPiece(rs[bi], dict, wp.Reason, wp.Result)
				p.TupleIDs = wp.TupleIDs
				p.Weight = wp.Weight
				if _, dup := seen[bi][p.KeyID()]; !dup {
					seen[bi][p.KeyID()] = struct{}{}
					fb.Candidates = append(fb.Candidates, p)
				}
				for _, id := range wp.TupleIDs {
					fb.Versions[id] = p
				}
			}
		}
	}
	return blocks
}
