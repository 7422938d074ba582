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
// Each part is cleaned by its own goroutine, in two calls with one barrier
// between them: stage I (index, AGP, weight learning), then — once every
// part's Eq. 6 summaries are reduced into merged weights — RSC under those
// weights. The union of the parts' blocks goes to the run's one stage II:
// FSCR over every tuple, then deduplication. Nothing is re-run: a part that
// fails, or a cancelled context, ends the run with an error.
type coordinator struct {
	schema *dataset.Schema
	rs     []*rules.Rule
	opts   Options
	k      int
	rng    *rand.Rand

	// senc holds every tuple of the run and its encoded row, in dict — the
	// run's value-ID space, in which parts take their rows and hand back
	// their summaries and blocks. Stage II fuses from these original dirty
	// values.
	senc      *dataset.StreamEncoder
	dict      *intern.Dict
	ev        *distance.Evaluator
	parts     []partInput
	createdAt time.Time

	// The online partitioner's state; cent is nil until drawn.
	cent       *centroidTable
	loads      []int
	assigned   int // tuples of senc already given a part
	distTime   time.Duration
	assignTime time.Duration
}

// partInput is one part's tuples in assignment order: their IDs and rows in
// the run's value IDs.
type partInput struct {
	ids  []int
	rows [][]uint32
}

func (p *partInput) add(id int, row []uint32) {
	p.ids = append(p.ids, id)
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
		schema:    schema,
		rs:        rs,
		opts:      opts,
		k:         k,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		senc:      dataset.NewStreamEncoder(schema, dict),
		dict:      dict,
		ev:        distance.NewEvaluator(metricOf(opts.Core), dict),
		parts:     make([]partInput, k),
		loads:     make([]int, k),
		createdAt: time.Now(),
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
	rows := c.senc.Encoded().Rows
	parts, distTime, heapTime, err := partition(rows, c.k, c.ev, c.rng)
	if err != nil {
		return 0, 0, err
	}
	for w, part := range parts {
		for _, pos := range part {
			c.parts[w].add(dirty.Tuples[pos].ID, rows[pos])
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

// part is one partition's cleaning state. It cleans in a dictionary of its
// own, because building a block mints sequence keys into it.
type part struct {
	wd      *workerDict
	ix      *index.Index
	stats   core.Stats
	sums    []ruleWeights
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

// finish cleans the parts: stage I on every part, the Eq. 6 reduce over
// their summaries, RSC on every part under the merged weights, then the
// run's stage II over the union of their blocks (FSCR over the original
// dirty tuples + deduplication).
func (c *coordinator) finish(ctx context.Context, dirty *dataset.Table, res *Result) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mIngestSeconds.ObserveSince(c.createdAt)
	opts := workerCoreOpts(c.opts.Core, c.k)
	parts := make([]part, c.k)
	err := eachPart(ctx, c.k, func(w int) error {
		p := &parts[w]
		p.wd = c.ingest(c.parts[w])
		t0 := time.Now()
		tb := p.wd.senc.Table()
		p.stats.Tuples = tb.Len()
		ix, err := core.StreamAGPLearn(ctx, tb, p.wd.senc.Encoded(), c.rs, opts, &p.stats)
		if err != nil {
			return err
		}
		p.ix, p.sums = ix, p.wd.summaries(ix)
		p.stageI = time.Since(t0)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Eq. 6: reduce the parts' piece summaries to support-weighted mean
	// weights — w(γ) = Σ nᵢ·wᵢ / Σ nᵢ — so sparse local evidence borrows
	// support from the other parts.
	t0 := time.Now()
	var merged []ruleWeights
	if !c.opts.SkipWeightMerge {
		per := make([][]ruleWeights, c.k)
		for w := range parts {
			per[w] = parts[w].sums
		}
		merged = reducePieceWeights(per, c.rs, c.dict)
	}
	res.GatherTime += time.Since(t0)

	err = eachPart(ctx, c.k, func(w int) error {
		p := &parts[w]
		t0 := time.Now()
		p.wd.applyWeights(p.ix, merged)
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
		mWorkerStageI.ObserveDuration(p.stageI)
		mWorkerStageII.ObserveDuration(p.stageII)
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
	mRuns.Inc()
	mRunSeconds.ObserveSince(c.createdAt)
	mGatherSeconds.ObserveDuration(res.GatherTime)
	return res, nil
}

// ruleWeights is one rule's pieces in columns, the Eq. 6 summary a part
// hands the reduce and the reduce hands back: piece i's values, reason then
// result, are IDs[i·a : (i+1)·a] for the rule's arity a, in the run's value
// IDs; Counts[i] is its support and Weights[i] its weight.
type ruleWeights struct {
	IDs     []uint32
	Counts  []int
	Weights []float64
}

// arity is the number of values of one of r's pieces: reason then result.
func arity(r *rules.Rule) int { return len(r.Reason) + len(r.Result) }

// reducePieceWeights is the coordinator half of Eq. 6: per rule, fold every
// part's pieces (in part order, for deterministic float accumulation) into
// support-weighted mean weights, keyed on the pieces' value-ID sequences in
// dict and emitted in first-seen order.
func reducePieceWeights(perWorker [][]ruleWeights, rs []*rules.Rule, dict *intern.Dict) []ruleWeights {
	// A single part's pieces are already the merged vector; returning them
	// verbatim keeps k=1 bit-identical to the stand-alone pipeline
	// ((n·w)/n can differ from w in the last ulp).
	if len(perWorker) == 1 {
		return perWorker[0]
	}
	out := make([]ruleWeights, len(rs))
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
		m := ruleWeights{IDs: ids[:0], Counts: make([]int, 0, len(sumN)), Weights: make([]float64, 0, len(sumN))}
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

// unionBlocks builds stage II's inputs from every part's post-RSC blocks:
// per rule, every part's pieces — each the version of the tuples it names —
// with their values in the run's value IDs, plus the union of their
// candidate pieces (deduplicated by identity, keeping the merged weight).
// Parts are folded in part order, so candidate order is deterministic.
// Minting the pieces' keys mutates dict, so this runs on one goroutine.
func (c *coordinator) unionBlocks(parts []part) []*core.FusionBlock {
	blocks := make([]*core.FusionBlock, len(c.rs))
	seen := make(map[uint32]struct{})
	for bi, r := range c.rs {
		fb := &core.FusionBlock{Rule: r, Attrs: r.Attrs()}
		clear(seen)
		a := arity(r)
		for _, pt := range parts {
			b := pt.ix.Blocks[bi]
			n := 0
			for _, g := range b.Groups {
				n += len(g.Pieces)
			}
			vals := make([]uint32, n*a)
			for _, g := range b.Groups {
				for _, lp := range g.Pieces {
					v := vals[:a:a]
					vals = vals[a:]
					for i, id := range lp.ValueIDs() {
						v[i] = pt.wd.coord[id]
					}
					p := index.NewPieceIDs(r, c.dict, v, len(r.Reason))
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

// workerDict is a part's end of the ID translation: its own dictionary,
// minted in the row-major first-sight order of the part's rows — so local
// IDs are the ones encoding the part's rows by value would assign — the
// part's table encoded into it, and the two translations between the run's
// and the part's value IDs.
type workerDict struct {
	senc  *dataset.StreamEncoder
	local []uint32 // run ID → local ID + 1; 0 until the part meets it
	coord []uint32 // local ID → run ID
}

// ingest builds part in's table in a dictionary of its own. It only reads
// the run's dictionary, so parts ingest concurrently.
func (c *coordinator) ingest(in partInput) *workerDict {
	wd := &workerDict{local: make([]uint32, c.dict.Len())}
	local := intern.NewDict()
	wd.senc = dataset.NewStreamEncoder(c.schema, local)
	row := make([]uint32, c.schema.Len())
	for i, id := range in.ids {
		for j, v := range in.rows[i] {
			if wd.local[v] == 0 {
				wd.local[v] = local.Intern(c.dict.Value(v)) + 1
				wd.coord = append(wd.coord, v)
			}
			row[j] = wd.local[v] - 1
		}
		// The row has the schema's width and id is the run's tuple ID, unique
		// within the run, so the append cannot fail.
		wd.senc.AppendEncoded(id, row)
	}
	return wd
}

// summaries is the part's Eq. 6 record: every piece of ix in
// block/group/piece order, its values in the run's IDs.
func (wd *workerDict) summaries(ix *index.Index) []ruleWeights {
	out := make([]ruleWeights, len(ix.Blocks))
	for bi, b := range ix.Blocks {
		n := 0
		for _, g := range b.Groups {
			n += len(g.Pieces)
		}
		rw := ruleWeights{
			IDs:     make([]uint32, 0, n*arity(b.Rule)),
			Counts:  make([]int, 0, n),
			Weights: make([]float64, 0, n),
		}
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				for _, id := range p.ValueIDs() {
					rw.IDs = append(rw.IDs, wd.coord[id])
				}
				rw.Counts = append(rw.Counts, p.Count())
				rw.Weights = append(rw.Weights, p.Weight)
			}
		}
		out[bi] = rw
	}
	return out
}

// applyWeights writes the merged Eq. 6 weights into ix. A merged piece
// naming a value this part never met is no piece of its index and is
// skipped. No merged weights (SkipWeightMerge) leave ix as learned.
func (wd *workerDict) applyWeights(ix *index.Index, merged []ruleWeights) {
	var ids []uint32
	var weights []float64
	for bi := range merged {
		rw := &merged[bi]
		a := arity(ix.Blocks[bi].Rule)
		ids, weights = ids[:0], weights[:0]
	piece:
		for i, w := range rw.Weights {
			n := len(ids)
			for _, c := range rw.IDs[i*a : (i+1)*a] {
				if int(c) >= len(wd.local) || wd.local[c] == 0 {
					ids = ids[:n]
					continue piece
				}
				ids = append(ids, wd.local[c]-1)
			}
			weights = append(weights, w)
		}
		ix.ApplyPieceWeights(bi, ids, weights)
	}
}
