package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// The one stage-I block pipeline (Alg. 1, per block: AGP → weight learning →
// RSC). runBlock is the only caller of the three phases, schedule the only
// goroutine pool that runs it, fold the only place its results reach Stats
// and the mlnclean_core_* instruments. Every execution path is a driver that
// picks a block source and a phase mask:
//
//	CleanEncoded            iterator (lazy, rule order)   AGP|Learn|RSC
//	StreamAGPLearn (worker) iterator                      AGP|Learn
//	StageAGP/Learn/RSC      built index (rule order)      one phase each
//	DeltaCleaner.cleanBlock one rebuilt block, no pool    AGP|Learn|RSC
//
// The distributed protocol (§6) differs from the solo one only by the Eq. 6
// weight merge between learning and RSC, which is why its worker runs two
// masks over the same blocks instead of one.
//
// Pulling blocks from an index.BlockIterator overlaps building with
// cleaning: a serial producer builds block i+1 while workers clean block i,
// so only a bounded window of blocks ever carries its full pre-RSC piece
// set. The overlap is race-free by structure: building a block mutates only
// the dictionary's sequence-key tables (group/piece key minting — the
// producer is the only writer), while the phases never mint keys — AGP
// merges by comparing existing key IDs, learning touches only weights, and
// RSC rewrites by discarding losing pieces. Workers read only the
// dictionary's value table, which is append-complete before the first block
// is built.
//
// Output does not depend on the driver: blocks are built and handed to the
// pool in rule order either way, the phases are block-independent, and
// cross-block evaluator reuse only ever returns exact memoized distances
// (see distance.Pool).

// phases is the set of per-block phases a driver asks runBlock for.
type phases uint8

const (
	phaseAGP phases = 1 << iota
	phaseLearn
	phaseRSC
	phaseAll = phaseAGP | phaseLearn | phaseRSC
)

// blockResult is what one runBlock call did to one block: the counters the
// phases report, the busy time each took, and the learner's error if any.
type blockResult struct {
	abnormal, abnormalPieces, promotions int
	agpPairs, agpFullScans               int
	learnIters, repairs                  int
	agp, learn, rsc                      time.Duration
	err                                  error
}

// runBlock runs the requested phases on one block, in pipeline order, with
// the caller's evaluator. memo is the DeltaCleaner's cross-rebuild AGP cache;
// batch drivers pass nil. It observes mlnclean_core_block_seconds once and
// holds mlnclean_mem_blocks_inflight up for as long as it runs.
func runBlock(bi int, b *index.Block, ev *distance.Evaluator, opts Options, ph phases, memo *agpMemo) (r blockResult) {
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
		r.abnormal, r.abnormalPieces, r.promotions, r.agpPairs, r.agpFullScans = agp(bi, b, opts.Tau, ev, opts.MergeCapRatio, memo, opts.Trace)
		r.agp = lap()
	}
	if ph&phaseLearn != 0 {
		if r.learnIters, r.err = learnBlockWeights(b); r.err != nil {
			return r
		}
		r.learn = lap()
	}
	if ph&phaseRSC != 0 {
		r.repairs = rsc(bi, b, ev, opts.Trace)
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

// schedule drains the source through a bounded worker set and returns one
// result per block, indexed by block. Each worker keeps one pooled distance
// evaluator for its whole lifetime. The queue bounds how far a lazy source
// runs ahead: at most par blocks queued plus par being cleaned exist with
// their full piece sets. Blocks not yet started when ctx is cancelled are
// skipped, and of all the errors the one with the lowest block index is
// returned — independent of the order the pool happened to run them in.
func schedule(ctx context.Context, dict *intern.Dict, n int, next blockSource, opts Options, run func(bi int, b *index.Block, ev *distance.Evaluator) blockResult) ([]blockResult, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	par = max(1, min(par, n))
	results := make([]blockResult, n)
	pool := distance.NewPool(opts.Metric, dict)
	defer recordPoolStats(pool)

	type work struct {
		bi int
		b  *index.Block
	}
	queue := make(chan work, par)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			ev := pool.Get()
			defer pool.Put(ev)
			for wk := range queue {
				if err := ctx.Err(); err != nil {
					results[wk.bi].err = err
					continue
				}
				results[wk.bi] = run(wk.bi, wk.b, ev)
			}
		}()
	}
	for ctx.Err() == nil {
		bi, b, ok := next()
		if !ok {
			break
		}
		queue <- work{bi, b}
	}
	close(queue)
	wg.Wait()
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, err
		}
	}
	return results, ctx.Err()
}

// fold adds the blocks' counters to st and to the process-wide instruments,
// and observes each requested phase's mlnclean_core_stage_seconds once: the
// phase's busy time summed over the blocks of this driver call (not the wall
// time of the call — blocks run in parallel).
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
	results, err := schedule(ctx, dict, n, next, opts, func(bi int, b *index.Block, ev *distance.Evaluator) blockResult {
		return runBlock(bi, b, ev, opts, ph, nil)
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
// appears. RSC is NOT run — the distributed protocol puts the Eq. 6 weight
// merge between learning and RSC, so the worker calls StageRSC once the
// merged weights have arrived. Output is byte-identical to BuildConfigured
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
