package distributed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
// taken through stage I (index, AGP, weight learning) and RSC by its own
// worker goroutine, coordinated exclusively through a Transport. Worker slot
// w serves partition w for the whole run. The coordinator streams partition
// batches down, reduces the workers' Eq. 6 piece summaries, broadcasts the
// merged weights, and gathers the workers' post-RSC blocks for the run's one
// stage II: FSCR over every tuple, then deduplication.
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

	// senc accumulates every tuple of the run and its dictionary-encoded
	// row; the global FSCR fuses from these original dirty values. dict is
	// the run's value-ID space: batches ship rows in it and workers answer
	// in it. Partitions are never materialized coordinator-side — batches
	// ship as they arrive.
	senc    *dataset.StreamEncoder
	dict    *intern.Dict
	ev      *distance.Evaluator
	cent    *centroidTable // the streaming partitioner's; nil until drawn
	loads   []int
	shipped int      // gather tuples already assigned and shipped
	sent    [][]bool // per worker: sent[w][id] once id's string went to w
	fresh   []uint32 // tupleBatch's scratch: the batch's first-sent IDs

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
		sent:      make([][]bool, k),
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
// partition-local group sizes, and a default parallelism budget split
// across the k concurrent workers so their pools don't oversubscribe the
// host. An explicit Parallelism is not divided: each worker's stage-I pool
// gets that many goroutines, whose idle ones help the worker's own blocks.
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
	if ex.cent == nil && ex.senc.Table().Len() < ex.k {
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
	if ex.cent == nil {
		// Draw centroids from the tuples seen so far (the streaming analogue
		// of Algorithm 3's random distinct centroids).
		n := len(rows)
		kk := min(ex.k, n)
		perm := ex.rng.Perm(n)
		ex.cent = &centroidTable{ev: ex.ev, centroids: make([][]uint32, ex.k)}
		for i := 0; i < kk; i++ {
			ex.cent.centroids[i] = rows[perm[i]]
		}
		for i := kk; i < ex.k; i++ {
			ex.cent.centroids[i] = ex.cent.centroids[0] // degenerate: fewer tuples than workers
		}
	}
	t0 := time.Now()
	dists := ex.cent.distances(rows[ex.shipped:])
	t1 := time.Now()
	ex.distTime += t1.Sub(t0)
	ids := make([][]int, ex.k)
	assigned := make([][][]uint32, ex.k)
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
		ids[best] = append(ids[best], tuples[ex.shipped].ID)
		assigned[best] = append(assigned[best], rows[ex.shipped])
	}
	ex.assignTime += time.Since(t1)
	for p := range ids {
		if err := ex.shipBatched(p, ids[p], assigned[p]); err != nil {
			return err
		}
	}
	return nil
}

// shipBatched sends partition p's assignment — the tuples' IDs and encoded
// rows — to its worker in BatchSize chunks. A failed send ends the run.
func (ex *Executor) shipBatched(p int, ids []int, rows [][]uint32) error {
	size := ex.opts.BatchSize
	for lo := 0; lo < len(ids); lo += size {
		hi := min(lo+size, len(ids))
		t0 := time.Now()
		if err := ex.tr.ToWorkerDeadline(p, ex.tupleBatch(p, ids[lo:hi], rows[lo:hi]), sendBound); err != nil {
			return ex.fail(err)
		}
		mBatchSendSeconds.ObserveSince(t0)
	}
	return nil
}

// tupleBatch builds worker p's TupleBatch for the given tuples: their rows
// flattened, and the strings of the value IDs p meets in them for the first
// time, in the order it meets them.
func (ex *Executor) tupleBatch(p int, ids []int, rows [][]uint32) TupleBatch {
	b := TupleBatch{Worker: p, IDs: ids, Rows: make([]uint32, 0, len(rows)*ex.schema.Len())}
	sent := ex.sent[p]
	if n := ex.dict.Len(); len(sent) < n {
		sent = append(sent, make([]bool, n-len(sent))...)
		ex.sent[p] = sent
	}
	fresh, size := ex.fresh[:0], 0
	for _, row := range rows {
		b.Rows = append(b.Rows, row...)
		for _, id := range row {
			if !sent[id] {
				sent[id] = true
				fresh = append(fresh, id)
				size += len(ex.dict.Value(id))
			}
		}
	}
	ex.fresh = fresh
	var delta strings.Builder
	delta.Grow(size)
	b.DeltaEnds = make([]int, len(fresh))
	for i, id := range fresh {
		delta.WriteString(ex.dict.Value(id))
		b.DeltaEnds[i] = delta.Len()
	}
	b.Delta = delta.String()
	return b
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
// worker, the Eq. 6 reduce + broadcast, RSC on every worker, then the
// gather's stage II (FSCR over the original dirty tuples + deduplication).
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
		if err := ex.checkSummaries(ws.Rules); err != nil {
			return fmt.Errorf("distributed: protocol: WeightSummaries from partition %d: %w", p, err)
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
	var merged []RuleWeights
	if !ex.opts.SkipWeightMerge {
		per := make([][]RuleWeights, ex.k)
		for w := range sums {
			per[w] = sums[w].Rules
		}
		merged = reducePieceWeights(per, ex.rs, ex.dict)
	}
	res.GatherTime += time.Since(t0)
	for w := 0; w < ex.k; w++ {
		if err := ex.tr.ToWorkerDeadline(w, MergedWeights{Worker: w, Rules: merged}, sendBound); err != nil {
			return nil, ex.fail(err)
		}
	}

	frs := make([]FusionResult, ex.k)
	err = ex.gather(func(p int, m Message) error {
		fr, ok := m.(FusionResult)
		if !ok {
			return fmt.Errorf("distributed: protocol: expected FusionResult, got %T", m)
		}
		if err := ex.checkBlocks(fr.Blocks); err != nil {
			return fmt.Errorf("distributed: protocol: FusionResult from partition %d: %w", p, err)
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
	// to stand-alone MLNClean"): the run's one stage II, over the union of
	// all workers' blocks. FSCR fuses from the ORIGINAL dirty tuples — the
	// union blocks already carry every worker's stage-I and RSC repairs — so
	// the minimality prior's observation baseline is the input, as in the
	// stand-alone cleaner. The run's fusion and duplicate counters come from
	// this pass.
	t0 = time.Now()
	blocks, err := unionWireBlocks(frs, ex.rs, ex.dict, dirty)
	if err != nil {
		return nil, ex.fail(err)
	}
	// The gather rows were interned before shipping; hand them to FSCR
	// instead of re-encoding the whole dataset on the finish path.
	res.Repaired, res.Clean, _ = core.StageII(dirty, ex.senc.Encoded(), blocks, ex.opts.Core, &res.Stats)
	res.GatherTime += time.Since(t0)
	res.WallTime = time.Since(ex.createdAt)
	mRuns.Inc()
	mRunSeconds.ObserveDuration(time.Since(ex.createdAt))
	mGatherSeconds.ObserveDuration(res.GatherTime)
	return res, nil
}

// checkSummaries reports why a worker's Eq. 6 record is not one column set
// per rule in the run's value IDs.
func (ex *Executor) checkSummaries(rws []RuleWeights) error {
	if len(rws) != len(ex.rs) {
		return fmt.Errorf("%d rules, want %d", len(rws), len(ex.rs))
	}
	for ri := range rws {
		if err := rws[ri].check(arity(ex.rs[ri])); err != nil {
			return fmt.Errorf("rule %d: %w", ri, err)
		}
		if err := checkIDs(rws[ri].IDs, ex.dict.Len()); err != nil {
			return fmt.Errorf("rule %d: %w", ri, err)
		}
	}
	return nil
}

// checkBlocks reports why a worker's post-RSC blocks are not one block per
// rule of pieces in the run's value IDs.
func (ex *Executor) checkBlocks(bs []WireFusionBlock) error {
	if len(bs) != len(ex.rs) {
		return fmt.Errorf("%d blocks for %d rules", len(bs), len(ex.rs))
	}
	for bi, b := range bs {
		a := arity(ex.rs[bi])
		for _, wp := range b.Pieces {
			if len(wp.Values) != a {
				return fmt.Errorf("block %d: piece of %d values, rule has %d", bi, len(wp.Values), a)
			}
			if err := checkIDs(wp.Values, ex.dict.Len()); err != nil {
				return fmt.Errorf("block %d: %w", bi, err)
			}
		}
	}
	return nil
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
// and run RSC on MergedWeights, ship the post-RSC blocks, then exit. It
// returns nil once its final reply is sent, and the reason for any other
// exit.
//
// Ingest is bounded: each TupleBatch is translated into the worker's own
// value IDs on arrival (the partition table's values alias the delta
// strings its dictionary holds, one copy of every distinct value), and
// stage I streams blocks from an iterator. Every reply names values by the
// coordinator's IDs.
func workerMain(ctx context.Context, tr workerLink, w int, opts core.Options) error {
	var (
		schema    *dataset.Schema
		rs        []*rules.Rule
		wd        *workerDict
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
				wd = newWorkerDict()
				senc = dataset.NewStreamEncoder(schema, wd.dict)
			}
		case TupleBatch:
			if senc == nil || ingestErr != nil {
				continue
			}
			ingestErr = wd.ingest(senc, msg)
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
				reply.Rules = wd.summaries(ix)
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
			if err := wd.applyWeights(ix, msg.Rules); err != nil {
				tr.ToCoordinator(FusionResult{Worker: w, Err: err.Error()})
				return err
			}
			if err := core.StageRSC(ctx, ix, opts, &stats); err != nil {
				tr.ToCoordinator(FusionResult{Worker: w, Err: err.Error()})
				return err
			}
			// The gather fuses every tuple once, from the pieces shipped here.
			return tr.ToCoordinator(FusionResult{
				Worker:    w,
				PartSize:  tb.Len(),
				Blocks:    wd.blocks(ix),
				Stats:     stats,
				ElapsedNS: time.Since(t0).Nanoseconds(),
			})
		}
	}
}

// reducePieceWeights is the coordinator half of Eq. 6: per rule, fold every
// worker's pieces (in worker order, for deterministic float accumulation)
// into support-weighted mean weights, keyed on the pieces' value-ID
// sequences in dict and emitted in first-seen order.
func reducePieceWeights(perWorker [][]RuleWeights, rs []*rules.Rule, dict *intern.Dict) []RuleWeights {
	// A single worker's pieces are already the merged vector; returning them
	// verbatim keeps k=1 bit-identical to the stand-alone pipeline
	// ((n·w)/n can differ from w in the last ulp).
	if len(perWorker) == 1 {
		return perWorker[0]
	}
	out := make([]RuleWeights, len(rs))
	at := make(map[uint32]int)
	for ri, r := range rs {
		a := arity(r)
		clear(at)
		var ids []uint32
		var sumNW, sumN []float64
		for _, ws := range perWorker {
			rw := &ws[ri]
			for i, w := range rw.Weights {
				piece := rw.IDs[i*a : (i+1)*a]
				key := dict.Seq(piece)
				j, ok := at[key]
				if !ok {
					j = len(sumN)
					at[key] = j
					ids = append(ids, piece...)
					sumNW = append(sumNW, 0)
					sumN = append(sumN, 0)
				}
				n := float64(rw.Counts[i])
				sumNW[j] += n * w
				sumN[j] += n
			}
		}
		// Pieces without support are dropped; ids compacts in place.
		m := RuleWeights{IDs: ids[:0], Counts: make([]int, 0, len(sumN)), Weights: make([]float64, 0, len(sumN))}
		for j, n := range sumN {
			if n <= 0 {
				continue
			}
			m.IDs = append(m.IDs, ids[j*a:(j+1)*a]...)
			m.Counts = append(m.Counts, int(n))
			m.Weights = append(m.Weights, sumNW[j]/n)
		}
		out[ri] = m
	}
	return out
}

// unionWireBlocks builds global FSCR inputs from every worker's shipped
// blocks: per rule, every worker's pieces — each the version of the tuples
// it names — plus the union of their candidate pieces (deduplicated by
// identity, keeping the merged weight). Wire pieces name values by dict's
// IDs, the dictionary the gather FSCR's dirty rows are encoded in, and each
// becomes a piece as is; the blocks were checked on receipt. Workers are
// folded in index order so candidate order is deterministic regardless of
// message arrival order. A piece may only name tuples of dirty, the table
// the coordinator shipped, and a tuple lives in one partition and in one
// piece of each of its worker's blocks, so a tuple ID that two pieces of one
// block claim — on one worker or across two — is a protocol error.
func unionWireBlocks(frs []FusionResult, rs []*rules.Rule, dict *intern.Dict, dirty *dataset.Table) ([]*core.FusionBlock, error) {
	blocks := make([]*core.FusionBlock, len(rs))
	posOf := dirty.Positions().Of
	claimed := make([]int32, dirty.Len()) // 1 + the last block that claimed each position
	seen := make(map[uint32]struct{})
	for bi, r := range rs {
		fb := &core.FusionBlock{Rule: r, Attrs: r.Attrs()}
		clear(seen)
		for _, fr := range frs {
			for _, wp := range fr.Blocks[bi].Pieces {
				p := index.NewPieceIDs(r, dict, wp.Values, len(r.Reason))
				p.TupleIDs = wp.TupleIDs
				p.Weight = wp.Weight
				fb.Pieces = append(fb.Pieces, p)
				if _, dup := seen[p.KeyID()]; !dup {
					seen[p.KeyID()] = struct{}{}
					fb.Candidates = append(fb.Candidates, p)
				}
				for _, id := range wp.TupleIDs {
					at, ok := posOf(id)
					if !ok {
						return nil, fmt.Errorf("distributed: protocol: block %d: tuple %d was never shipped", bi, id)
					}
					if claimed[at] == int32(bi)+1 {
						return nil, fmt.Errorf("distributed: protocol: block %d: tuple %d claimed by two pieces", bi, id)
					}
					claimed[at] = int32(bi) + 1
				}
			}
		}
		blocks[bi] = fb
	}
	return blocks, nil
}
