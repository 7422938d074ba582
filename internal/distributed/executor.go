package distributed

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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

// coordinator is one run's driver side: every tuple of the run encoded into
// the run's dictionary, the partitioners' evaluator over it, and each part's
// tuples. Clean fills the parts with Algorithm 3, CleanStream with the
// online partitioner (stream.go); finish then cleans them.
//
// A part is a view of the run: its tuples are the run's, its rows the
// run's encoded rows, and it cleans in a Fork of the run's dictionary. Each
// part is cleaned by its own goroutine, in two calls with one barrier
// between them: stage I (index, AGP, weight learning), then — once Eq. 6
// has merged the parts' weights in place — RSC under those weights. The
// union of the parts' blocks goes to the run's one stage II: FSCR over
// every tuple, then deduplication. Nothing is re-run: a part that fails, or
// a cancelled context, ends the run with an error.
type coordinator struct {
	schema *dataset.Schema
	rs     []*rules.Rule
	opts   Options
	k      int
	rng    *rand.Rand

	// senc holds every tuple of the run and its encoded row, in dict — the
	// one value-ID space every part cleans in. Stage II fuses from these
	// original dirty values.
	senc  *dataset.StreamEncoder
	dict  *intern.Dict
	ev    *distance.Evaluator
	parts []partInput

	// The online partitioner's state; cent is nil until drawn.
	cent       *centroidTable
	loads      []int
	assigned   int // tuples of senc already given a part
	distTime   time.Duration
	assignTime time.Duration
}

// partInput is one part's tuples in assignment order and their rows in the
// run's value IDs, both the run's own.
type partInput struct {
	tuples []*dataset.Tuple
	rows   [][]uint32
}

func (p *partInput) add(t *dataset.Tuple, row []uint32) {
	p.tuples = append(p.tuples, t)
	p.rows = append(p.rows, row)
}

func newCoordinator(schema *dataset.Schema, rs []*rules.Rule, opts Options, k int) (*coordinator, error) {
	if schema == nil {
		return nil, fmt.Errorf("distributed: nil schema")
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("distributed: no rules")
	}
	if err := core.CheckFusionWidth(schema, rs); err != nil {
		return nil, err
	}
	dict := intern.NewDict()
	return &coordinator{
		schema: schema,
		rs:     rs,
		opts:   opts,
		k:      k,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		senc:   dataset.NewStreamEncoder(schema, dict),
		dict:   dict,
		ev:     distance.NewEvaluator(metricOf(opts.Core), dict),
		parts:  make([]partInput, k),
		loads:  make([]int, k),
	}, nil
}

// partitionTable encodes dirty into the run's dictionary and fills the parts
// with Algorithm 3 over its value IDs, returning the algorithm's two phase
// times.
func (c *coordinator) partitionTable(dirty *dataset.Table) (distTime, heapTime time.Duration, err error) {
	for _, t := range dirty.Tuples {
		if _, err := c.senc.AppendID(t.ID, t.Values); err != nil {
			return 0, 0, err
		}
	}
	tuples, rows := c.senc.Table().Tuples, c.senc.Encoded().Rows
	parts, distTime, heapTime, err := partition(rows, c.k, c.ev, c.rng)
	if err != nil {
		return 0, 0, err
	}
	for w, part := range parts {
		for _, pos := range part {
			c.parts[w].add(tuples[pos], rows[pos])
		}
	}
	return distTime, heapTime, nil
}

// workerCoreOpts derives the per-part pipeline options: τ scaled to
// partition-local group sizes, and a default parallelism budget split
// across the k concurrent parts so their pools don't oversubscribe the
// host. An explicit Parallelism is not divided: each part's stage-I pool
// gets that many goroutines, whose idle ones help the part's own blocks.
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

// part is one partition's cleaning state.
type part struct {
	ix      *index.Index
	stats   core.Stats
	stageI  time.Duration
	stageII time.Duration
}

// eachPart runs fn for every part on its own goroutine and waits for all of
// them. A cancelled ctx is the run's error; otherwise the first failing
// part's, in part order.
func eachPart(ctx context.Context, k int, fn func(w int) error) error {
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("distributed: part %d: %w", w, err)
		}
	}
	return nil
}

// finish cleans the parts: stage I on every part, the Eq. 6 merge of their
// weights, RSC on every part under the merged weights, then the
// run's stage II over the union of their blocks (FSCR over the original
// dirty tuples + deduplication).
func (c *coordinator) finish(ctx context.Context, dirty *dataset.Table, res *Result) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts := workerCoreOpts(c.opts.Core, c.k)
	parts := make([]part, c.k)
	err := eachPart(ctx, c.k, func(w int) error {
		p, in := &parts[w], c.parts[w]
		t0 := time.Now()
		// Building a block mints sequence keys, so each part mints into a
		// fork of the run's dictionary; the run interns nothing until the
		// gather.
		tb := &dataset.Table{Schema: c.schema, Tuples: in.tuples}
		enc := &dataset.Encoded{Dict: c.dict.Fork(), Rows: in.rows}
		p.stats.Tuples = tb.Len()
		ix, err := core.StreamAGPLearn(ctx, tb, enc, c.rs, opts, &p.stats)
		if err != nil {
			return err
		}
		p.ix = ix
		p.stageI = time.Since(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	if !c.opts.SkipWeightMerge {
		ixs := make([]*index.Index, c.k)
		for w := range parts {
			ixs[w] = parts[w].ix
		}
		mergeWeights(ixs, c.dict)
	}
	res.GatherTime += time.Since(t0)

	err = eachPart(ctx, c.k, func(w int) error {
		p := &parts[w]
		t0 := time.Now()
		if err := core.StageRSC(ctx, p.ix, opts, &p.stats); err != nil {
			return err
		}
		p.stageII = time.Since(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.WorkerTimes = make([]time.Duration, c.k)
	res.WorkerStageITimes = make([]time.Duration, c.k)
	res.WorkerStageIITimes = make([]time.Duration, c.k)
	res.PartSizes = make([]int, c.k)
	for w, p := range parts {
		res.WorkerStageITimes[w] = p.stageI
		res.WorkerStageIITimes[w] = p.stageII
		res.WorkerTimes[w] = p.stageI + p.stageII
		res.PartSizes[w] = p.stats.Tuples
		res.Stats.Add(p.stats)
	}
	res.RunID = obs.NewRunID()

	// Gather (§6: "conflicts and duplicates are eliminated in the same way
	// to stand-alone MLNClean"): the run's one stage II, over the union of
	// every part's blocks. FSCR fuses from the ORIGINAL dirty tuples — the
	// union blocks already carry every part's stage-I and RSC repairs — so
	// the minimality prior's observation baseline is the input, as in the
	// stand-alone cleaner. The run's fusion and duplicate counters come from
	// this pass.
	t0 = time.Now()
	blocks := c.unionBlocks(parts)
	res.Repaired, res.Clean, _ = core.StageII(dirty, c.senc.Encoded(), blocks, c.opts.Core, &res.Stats)
	res.GatherTime += time.Since(t0)
	return res, nil
}

// mergeWeights is Eq. 6 over the parts' indexes — the same rules, each
// index in a fork of dict: per rule, every piece takes the support-weighted
// mean w(γ) = Σ nᵢ·wᵢ / Σ nᵢ of the weights its values carry across the
// parts, so sparse local evidence borrows support from the other parts.
// Parts fold in part order, so the float sums are deterministic. A single
// part's pieces already hold the merged weights and keep their bits
// ((n·w)/n can differ from w in the last ulp). Minting the pieces' keys
// mutates dict, so this runs on one goroutine.
func mergeWeights(ixs []*index.Index, dict *intern.Dict) {
	if len(ixs) == 1 {
		return
	}
	at := make(map[uint32]int)
	var sumNW, sumN []float64
	var pieces []*index.Piece
	var slot []int
	for bi := range ixs[0].Blocks {
		clear(at)
		sumNW, sumN, pieces, slot = sumNW[:0], sumN[:0], pieces[:0], slot[:0]
		for _, ix := range ixs {
			for _, g := range ix.Blocks[bi].Groups {
				for _, p := range g.Pieces {
					key := dict.Seq(p.ValueIDs())
					j, ok := at[key]
					if !ok {
						j = len(sumN)
						at[key] = j
						sumNW, sumN = append(sumNW, 0), append(sumN, 0)
					}
					n := float64(p.Count())
					sumNW[j] += n * p.Weight
					sumN[j] += n
					pieces, slot = append(pieces, p), append(slot, j)
				}
			}
		}
		// A piece without support anywhere keeps its learned weight.
		for i, p := range pieces {
			if n := sumN[slot[i]]; n > 0 {
				p.Weight = sumNW[slot[i]] / n
			}
		}
	}
}

// unionBlocks builds stage II's inputs from every part's post-RSC blocks:
// per rule, every part's pieces — each the version of the tuples it names —
// re-keyed in the run's dictionary, plus the union of their candidate
// pieces (deduplicated by identity, keeping the merged weight). Parts are
// folded in part order, so candidate order is deterministic. Minting the
// pieces' keys mutates dict, so this runs on one goroutine.
func (c *coordinator) unionBlocks(parts []part) []*core.FusionBlock {
	blocks := make([]*core.FusionBlock, len(c.rs))
	seen := make(map[uint32]struct{})
	for bi, r := range c.rs {
		fb := &core.FusionBlock{Rule: r, Attrs: r.Attrs()}
		clear(seen)
		for _, pt := range parts {
			for _, g := range pt.ix.Blocks[bi].Groups {
				for _, lp := range g.Pieces {
					p := index.NewPieceIDs(r, c.dict, lp.ValueIDs(), len(r.Reason))
					p.TupleIDs = lp.TupleIDs
					p.Weight = lp.Weight
					fb.Pieces = append(fb.Pieces, p)
					if _, dup := seen[p.KeyID()]; !dup {
						seen[p.KeyID()] = struct{}{}
						fb.Candidates = append(fb.Candidates, p)
					}
				}
			}
		}
		blocks[bi] = fb
	}
	return blocks
}
