package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// The one stage-I block pipeline (Alg. 1, per block: AGP → weight learning →
// RSC). runBlock and DeltaCleaner.reclean are the only callers of the three
// phases, schedule the only goroutine pool that runs them, fold the only
// place their results reach Stats and the mlnclean_core_* instruments. Every
// execution path is a driver that picks a block source and a phase mask:
//
//	CleanEncoded            iterator (lazy, rule order)   AGP|Learn|RSC
//	StreamAGPLearn (worker) iterator                      AGP|Learn
//	StageAGP/Learn/RSC      built index (rule order)      one phase each
//	DeltaCleaner.Load/Apply its edited blocks (reclean)   AGP|Learn|RSC
//
// AGP is a decision (agpDecide), which reads a block, and a merge
// (agpMerge), which writes it. runBlock merges in place; reclean decides on
// the block the delta engine keeps and merges, learns and picks only the
// groups whose outcome can have moved, each copied out of it, and reuses
// the rest of the block its last re-clean left.
//
// Inside a block, AGP's per-source searches and RSC's per-group winners are
// lists of independent items that the pool's idle workers claim alongside
// the block's owner (crew.each); learning, a handful of Newton steps per
// group, runs on the owner. The owner then applies everything
// order-dependent (merges, rewrites, memo and trace records) in item order,
// so output does not depend on who ran which item either.
//
// The distributed run (§6) differs from the solo one only by the Eq. 6
// weight merge between learning and RSC, which is why each of its parts runs
// two masks over the same blocks instead of one.
//
// Pulling blocks from an index.BlockIterator overlaps building with
// cleaning: a serial producer builds block i+1 while workers clean block i,
// so only a bounded window of blocks ever carries its full pre-RSC piece
// set. The overlap is race-free by structure: building a block mutates only
// the dictionary's sequence-key tables (group/piece key minting — the
// producer is the only writer), while the phases never mint keys — AGP
// merges by comparing existing key IDs, learning touches only weights, and
// RSC copies each group's winner into new slabs (index.Block.Collapse),
// keys included. Workers read only the dictionary's value table, which is
// append-complete before the first block is built.
//
// Output does not depend on the driver: blocks are built and handed to the
// pool in rule order either way, the phases are block-independent, and an
// evaluator keeps no distance between calls (only per-value forms), so
// whichever worker's evaluator measures a pair returns the same bits.

// phases is the set of per-block phases a driver asks runBlock for.
type phases uint8

const (
	phaseAGP phases = 1 << iota
	phaseLearn
	phaseRSC
	phaseAll = phaseAGP | phaseLearn | phaseRSC
)

// blockResult is what one runBlock call did to one block: the counters the
// phases report, the owner's wall time each took, and the learner's error
// if any. regrouped counts the groups learned and given an RSC winner:
// every group of the block in a batch run; in a delta re-clean
// (DeltaCleaner.reclean), the redone groups and the reweighed ones.
// recollapsed counts the redone groups alone: copied, merged, learned,
// RSC'd and collapsed.
type blockResult struct {
	abnormal, abnormalPieces, promotions int
	agpPairs, agpFullScans               int
	learnIters, repairs                  int
	regrouped, recollapsed               int
	agp, learn, rsc                      time.Duration
	err                                  error
}

// runBlock runs the requested phases on one block, in pipeline order, on
// the caller's crew: the batch drivers' stage I, which merges the block in
// place. It observes mlnclean_core_block_seconds once and holds
// mlnclean_mem_blocks_inflight up for as long as it runs. The phase times
// are the owner's wall time, helpers included.
func runBlock(bi int, b *index.Block, c crew, opts Options, ph phases) (r blockResult) {
	mBlocksInFlight.Add(1)
	defer mBlocksInFlight.Add(-1)
	start := time.Now()
	t := start
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(t)
		t = now
		return d
	}
	if ph&phaseAGP != 0 {
		r.abnormal, r.abnormalPieces, r.promotions, r.agpPairs, r.agpFullScans = agp(bi, b, opts.Tau, c, opts.MergeCapRatio, opts.Trace)
		r.agp = lap()
	}
	if ph&phaseLearn != 0 {
		if r.learnIters, r.err = learnBlockWeights(b, nil); r.err != nil {
			return r
		}
		r.learn = lap()
	}
	if ph&phaseRSC != 0 {
		r.regrouped, r.recollapsed = len(b.Groups), len(b.Groups)
		r.repairs = rsc(bi, b, c, opts.Trace, nil)
		r.rsc = lap()
	}
	mBlockSeconds.ObserveDuration(t.Sub(start))
	return r
}

// blockSource yields the next block to clean and its block index, or
// ok=false once exhausted. schedule calls it from one goroutine only.
type blockSource func() (bi int, b *index.Block, ok bool)

// builtBlocks is the source over an already-built index: its blocks in rule
// order, the order the iterator yields them in.
func builtBlocks(ix *index.Index) blockSource {
	next := 0
	return func() (int, *index.Block, bool) {
		if next == len(ix.Blocks) {
			return 0, nil, false
		}
		bi := next
		next++
		return bi, ix.Blocks[bi], true
	}
}

// workers is how many goroutines a stage-I pool or an FSCR pass runs on.
func (o Options) workers() int {
	if o.Parallelism <= 0 {
		return runtime.NumCPU()
	}
	return o.Parallelism
}

// newEvaluators returns n fresh evaluators for the metric over dict: one per
// stage-I worker.
func newEvaluators(m distance.Metric, dict *intern.Dict, n int) []*distance.Evaluator {
	evs := make([]*distance.Evaluator, n)
	for i := range evs {
		evs[i] = distance.NewEvaluator(m, dict)
	}
	return evs
}

// schedule drains the source through a pool of par = len(evs) workers and
// returns one result per block, indexed by block. Worker w runs on evs[w]
// for its whole lifetime. The queue bounds how far a lazy source runs ahead:
// at most par blocks queued plus par being cleaned exist with their full
// piece sets. Blocks not yet started when ctx is cancelled are
// skipped, and of all the errors the one with the lowest block index is
// returned — independent of the order the pool happened to run them in.
//
// A worker with no block of its own helps the blocks still running: it
// waits on the queue and on the pool's assist channel at once, and a
// running block's phases offer their items there (crew.each). So par
// workers start however few blocks there are, and none leaves before the
// last block is done.
func schedule(ctx context.Context, evs []*distance.Evaluator, n int, next blockSource, run func(bi int, b *index.Block, c crew) blockResult) ([]blockResult, error) {
	par := len(evs)
	results := make([]blockResult, n)
	type work struct {
		bi int
		b  *index.Block
	}
	queue := make(chan work, par)
	assist := make(chan *job)
	quit := make(chan struct{})
	var blocks, workers sync.WaitGroup
	workers.Add(par)
	for _, ev := range evs {
		go func() {
			defer workers.Done()
			c := crew{ev: ev, assist: assist, size: par}
			q := queue
			for {
				select {
				case wk, ok := <-q:
					if !ok {
						q = nil // drained: stay to help the blocks still running
						continue
					}
					if err := ctx.Err(); err != nil {
						results[wk.bi].err = err
					} else {
						results[wk.bi] = run(wk.bi, wk.b, c)
					}
					blocks.Done()
				case j := <-assist:
					j.help(c.ev)
				case <-quit:
					return
				}
			}
		}()
	}
	for ctx.Err() == nil {
		bi, b, ok := next()
		if !ok {
			break
		}
		blocks.Add(1)
		queue <- work{bi, b}
	}
	close(queue)
	blocks.Wait()
	close(quit)
	workers.Wait()
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, err
		}
	}
	return results, ctx.Err()
}

// crew is what one block's phases run on: the pool worker that owns the
// block, plus whichever of the pool's other workers are idle while a phase
// runs. A crew of size 1, or one without an assist channel, is the owner
// alone running the same code.
type crew struct {
	ev     *distance.Evaluator // the owner's
	assist chan *job           // where idle workers wait for a job
	size   int                 // participants at most: the pool's worker count
}

// job is one phase's n independent items, open to idle workers while its
// owner works through them.
type job struct {
	n      int
	next   atomic.Int64   // the next unclaimed item
	joined atomic.Int32   // helpers so far; helper k is participant k
	done   sync.WaitGroup // one count per item, released once it has run
	item   func(p, i int, ev *distance.Evaluator)
}

func (j *job) claim() int { return int(j.next.Add(1) - 1) }

// work runs items as participant p until none is left to claim.
func (j *job) work(p int, ev *distance.Evaluator) {
	for i := j.claim(); i < j.n; i = j.claim() {
		j.item(p, i, ev)
		j.done.Done()
	}
}

// help joins j as its next participant. A job taken after its owner claimed
// the last item has nothing left, and help returns at once.
func (j *job) help(ev *distance.Evaluator) { j.work(int(j.joined.Add(1)), ev) }

// each runs item(p, i, ev) once for every i in [0, n) and returns when all
// have run. The owner is participant 0 and works with its own evaluator; a
// helper is participant 1 … size−1 and brings its own. Items run in any
// order and concurrently, so item writes only into per-item or
// per-participant slots; the caller applies anything order-dependent
// afterwards, in item order.
func (c crew) each(n int, item func(p, i int, ev *distance.Evaluator)) {
	j := &job{n: n, item: item}
	j.done.Add(n)
	offered := 0
	for i := j.claim(); i < n; i = j.claim() {
		// While more than the item in hand is left, offer the job once per
		// item: a worker parked in the pool's select takes it, and with
		// every worker busy the send falls through at once.
		if offered < c.size-1 && i+1 < n {
			select {
			case c.assist <- j:
				offered++
			default:
			}
		}
		item(0, i, c.ev)
		j.done.Done()
	}
	j.done.Wait()
}

// fold adds the blocks' counters to st and to the process-wide instruments,
// and observes each requested phase's mlnclean_core_stage_seconds once: the
// phase's wall time on each block's owner, summed over the blocks of this
// driver call (not the wall time of the call — blocks run in parallel — and
// not its CPU time — helpers work inside the owner's phase).
func fold(results []blockResult, ph phases, st *Stats) {
	var agpTime, learnTime, rscTime time.Duration
	for i := range results {
		r := &results[i]
		st.addBlock(r)
		mAbnormalGroups.Add(int64(r.abnormal))
		mAGPPromotions.Add(int64(r.promotions))
		// Every abnormal group is either merged away or promoted in place.
		mAGPMerges.Add(int64(r.abnormal - r.promotions))
		mAGPPairs.Add(int64(r.agpPairs))
		mAGPFullScans.Add(int64(r.agpFullScans))
		mLearnIterations.Add(int64(r.learnIters))
		mRSCRewrites.Add(int64(r.repairs))
		agpTime += r.agp
		learnTime += r.learn
		rscTime += r.rsc
	}
	if ph&phaseAGP != 0 {
		mStageAGP.ObserveDuration(agpTime)
	}
	if ph&phaseLearn != 0 {
		mStageLearn.ObserveDuration(learnTime)
	}
	if ph&phaseRSC != 0 {
		mStageRSC.ObserveDuration(rscTime)
	}
}

// addBlock folds one block's stage-I counters into s.
func (s *Stats) addBlock(r *blockResult) {
	s.AbnormalGroups += r.abnormal
	s.AbnormalPieces += r.abnormalPieces
	s.AGPPromotions += r.promotions
	s.LearnIterations += r.learnIters
	s.RSCRepairs += r.repairs
}

// stageI is the batch driver: schedule runBlock with the phase mask over the
// source's n blocks and fold the results into st.
func stageI(ctx context.Context, dict *intern.Dict, n int, next blockSource, opts Options, ph phases, st *Stats) error {
	results, err := schedule(ctx, newEvaluators(opts.Metric, dict, opts.workers()), n, next, func(bi int, b *index.Block, c crew) blockResult {
		return runBlock(bi, b, c, opts, ph)
	})
	if err != nil {
		return err
	}
	fold(results, ph, st)
	return nil
}

// streamStage is stageI over a lazily built index: blocks are pulled from an
// index.BlockIterator and cleaned as soon as each exists. It returns the
// finished index and sets st's block and group counts, which are final once
// AGP has run (neither learning nor RSC adds or removes a group).
func streamStage(ctx context.Context, dirty *dataset.Table, enc *dataset.Encoded, rs []*rules.Rule, opts Options, ph phases, st *Stats) (*index.Index, error) {
	it, err := index.NewBlockIterator(dirty, rs, index.BuildConfig{Encoded: enc})
	if err != nil {
		return nil, err
	}
	ix := it.Index()
	if err := stageI(ctx, ix.Dict(), it.Len(), it.Next, opts, ph, st); err != nil {
		return nil, err
	}
	st.Blocks = len(ix.Blocks)
	for _, b := range ix.Blocks {
		st.Groups += len(b.Groups)
	}
	return ix, nil
}

// StreamAGPLearn is the distributed worker's stage I: the index is built
// block by block with AGP and weight learning run on each block as it
// appears. RSC is NOT run — the distributed run puts the Eq. 6 weight merge
// between learning and RSC, so each part calls StageRSC once the merged
// weights are in. Output is byte-identical to BuildConfigured
// followed by StageAGP and StageLearn.
func StreamAGPLearn(ctx context.Context, dirty *dataset.Table, enc *dataset.Encoded, rs []*rules.Rule, opts Options, st *Stats) (*index.Index, error) {
	return streamStage(ctx, dirty, enc, rs, opts.withDefaults(), phaseAGP|phaseLearn, st)
}

// The Stage* functions run one phase over every block of a built index, so
// a caller can time the phases separately or interleave work between them
// (the distributed worker's RSC, the benchmark's per-layer pass). Composed
// in order over index.BuildConfigured they equal Clean's stage I. They keep
// no package-level state, so any number of callers may run stages over
// disjoint indexes concurrently; a cancelled ctx aborts between blocks.

// StageAGP runs abnormal-group processing on every block of the index,
// accumulating abnormal-group counts into st.
func StageAGP(ctx context.Context, ix *index.Index, opts Options, st *Stats) error {
	return stageI(ctx, ix.Dict(), len(ix.Blocks), builtBlocks(ix), opts.withDefaults(), phaseAGP, st)
}

// StageLearn learns piece weights on every block of the index (Eq. 4 prior
// + diagonal Newton).
func StageLearn(ctx context.Context, ix *index.Index, opts Options, st *Stats) error {
	return stageI(ctx, ix.Dict(), len(ix.Blocks), builtBlocks(ix), opts.withDefaults(), phaseLearn, st)
}

// StageRSC runs reliability-score cleaning on every block, leaving exactly
// one piece per group.
func StageRSC(ctx context.Context, ix *index.Index, opts Options, st *Stats) error {
	return stageI(ctx, ix.Dict(), len(ix.Blocks), builtBlocks(ix), opts.withDefaults(), phaseRSC, st)
}
