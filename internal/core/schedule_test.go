package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/errgen"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// --- stage-I scheduler ---------------------------------------------------

// schedSource opens a fresh block source of one kind over a table whose
// rule set yields `blocks` identical blocks.
type schedSource func(t *testing.T, blocks int) (dict *intern.Dict, n int, next blockSource)

func schedInputs(blocks int) (*dataset.Table, []*rules.Rule) {
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("x", "1")
	tb.MustAppend("x", "2")
	rs := make([]*rules.Rule, blocks)
	for i := range rs {
		rs[i] = rules.MustParseStrings("FD: A -> B")[0]
	}
	return tb, rs
}

// schedSources are the two sources a driver can hand the scheduler: blocks
// built lazily by an iterator, and the blocks of an already-built index.
var schedSources = map[string]schedSource{
	"iterator": func(t *testing.T, blocks int) (*intern.Dict, int, blockSource) {
		t.Helper()
		tb, rs := schedInputs(blocks)
		it, err := index.NewBlockIterator(tb, rs, index.BuildConfig{})
		if err != nil {
			t.Fatalf("NewBlockIterator: %v", err)
		}
		return it.Index().Dict(), it.Len(), it.Next
	},
	"built": func(t *testing.T, blocks int) (*intern.Dict, int, blockSource) {
		t.Helper()
		tb, rs := schedInputs(blocks)
		ix, err := index.Build(tb, rs)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return ix.Dict(), len(ix.Blocks), builtBlocks(ix)
	},
}

// runSchedule runs schedule on par fresh evaluators over dict.
func runSchedule(ctx context.Context, dict *intern.Dict, par, n int, next blockSource, run func(int, *index.Block, crew) blockResult) ([]blockResult, error) {
	return schedule(ctx, newEvaluators(distance.Levenshtein{}, dict, par), n, next, run)
}

// soloCrew is a block's crew outside any pool: its owner alone.
func soloCrew(ev *distance.Evaluator) crew { return crew{ev: ev, size: 1} }

// helpedCrew is a crew of 1+helpers participants, each with its own
// evaluator, whose helpers are parked on the assist channel, as idle pool
// workers are; stop releases them.
func helpedCrew(metric distance.Metric, dict *intern.Dict, helpers int) (c crew, stop func()) {
	c = crew{ev: distance.NewEvaluator(metric, dict), assist: make(chan *job), size: 1 + helpers}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for range helpers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hev := distance.NewEvaluator(metric, dict)
			for {
				select {
				case j := <-c.assist:
					j.help(hev)
				case <-quit:
					return
				}
			}
		}()
	}
	return c, func() { close(quit); wg.Wait() }
}

// helpedJob is a block's phase as the helper tests run it: n items, each
// recording who ran it and a value computed from its index alone, slow
// enough (a short sleep) for idle workers to take the job. It returns
// whether anyone but the owner ran an item.
func helpedJob(t *testing.T, c crew, n int, out []int) (helped bool) {
	t.Helper()
	ran := make([]int32, n)
	who := make([]int, n)
	c.each(n, func(p, i int, ev *distance.Evaluator) {
		if ev == nil || p < 0 || p >= c.size {
			t.Errorf("item %d ran as participant %d of %d with evaluator %v", i, p, c.size, ev)
		}
		atomic.AddInt32(&ran[i], 1)
		who[i] = p
		time.Sleep(20 * time.Microsecond)
		out[i] = i*i + 7
	})
	for i, r := range ran {
		if r != 1 {
			t.Errorf("item %d ran %d times", i, r)
		}
		helped = helped || who[i] != 0
	}
	return helped
}

// TestSchedule runs the scheduler's contract against both block sources:
// every block is visited exactly once whatever the parallelism; of several
// failing blocks the lowest block index's error is reported, independent of
// the order the pool ran them in; and a context cancelled mid-run skips the
// blocks not yet started and returns the context's error. It holds with
// more workers than blocks, where the idle ones help the blocks still
// running, and no worker outlives schedule.
func TestSchedule(t *testing.T) {
	for name, open := range schedSources {
		t.Run(name+"/visits-all", func(t *testing.T) {
			for _, par := range []int{1, 2, 7, 64} {
				dict, n, next := open(t, 9)
				visited := make([]int, n)
				results, err := runSchedule(context.Background(), dict, par, n, next, func(bi int, b *index.Block, c crew) blockResult {
					if b == nil || c.ev == nil || c.size != par {
						t.Errorf("par=%d: block %d ran without a block or an evaluator, or on a crew of %d", par, bi, c.size)
					}
					visited[bi]++ // distinct bi per call; each index written once
					return blockResult{repairs: bi}
				})
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				for bi, v := range visited {
					if v != 1 || results[bi].repairs != bi {
						t.Errorf("par=%d: block %d visited %d times, result %+v", par, bi, v, results[bi])
					}
				}
			}
		})
		t.Run(name+"/helpers-give-identical-items", func(t *testing.T) {
			const items = 300
			var want []int
			helped := false
			for _, par := range []int{1, 2, 3, 4} {
				// One block, so every worker but its owner is idle.
				dict, n, next := open(t, 1)
				out := make([]int, items)
				_, err := runSchedule(context.Background(), dict, par, n, next, func(_ int, _ *index.Block, c crew) blockResult {
					h := helpedJob(t, c, items, out)
					if h && par == 1 {
						t.Errorf("par=1: an item ran on a helper")
					}
					helped = helped || h
					return blockResult{}
				})
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				if want == nil {
					want = out
				} else if !slices.Equal(out, want) {
					t.Errorf("par=%d: items differ from par=1", par)
				}
			}
			if !helped {
				t.Error("no idle worker ever took an item: the pool lends nothing")
			}
		})
		t.Run(name+"/first-error-wins", func(t *testing.T) {
			for _, par := range []int{1, 4} {
				dict, n, next := open(t, 16)
				_, err := runSchedule(context.Background(), dict, par, n, next, func(bi int, _ *index.Block, c crew) blockResult {
					helpedJob(t, c, 20, make([]int, 20))
					if bi >= 3 {
						return blockResult{err: fmt.Errorf("block %d failed", bi)}
					}
					return blockResult{}
				})
				if err == nil || err.Error() != "block 3 failed" {
					t.Errorf("par=%d: err = %v, want block 3's error", par, err)
				}
			}
		})
		t.Run(name+"/cancel-skips", func(t *testing.T) {
			for _, par := range []int{1, 3} {
				dict, n, next := open(t, 32)
				ctx, cancel := context.WithCancel(context.Background())
				var ran atomic.Int32
				_, err := runSchedule(ctx, dict, par, n, next, func(_ int, _ *index.Block, c crew) blockResult {
					second := ran.Add(1) == 2
					c.each(10, func(_, i int, _ *distance.Evaluator) {
						if second && i == 5 {
							// Cancel from inside an item, while helpers may be
							// running the job's other items.
							cancel()
						}
						time.Sleep(20 * time.Microsecond)
					})
					return blockResult{}
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("par=%d: err = %v, want context.Canceled", par, err)
				}
				if int(ran.Load()) >= n {
					t.Errorf("par=%d: ran all %d blocks despite cancellation", par, n)
				}
			}
		})
		t.Run(name+"/no-worker-outlives-schedule", func(t *testing.T) {
			base := runtime.NumGoroutine()
			for _, par := range []int{2, 4, 16} {
				dict, n, next := open(t, 3)
				_, err := runSchedule(context.Background(), dict, par, n, next, func(_ int, _ *index.Block, c crew) blockResult {
					// Items too quick for a helper to find anything left:
					// most offered jobs are stale by the time one is taken.
					for range 50 {
						c.each(3, func(int, int, *distance.Evaluator) {})
					}
					return blockResult{}
				})
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
			}
			// A worker is counted until it has returned, shortly after its
			// last Done; give the stragglers a moment.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines after schedule returned, %d before", got, base)
			}
		})
	}
}

// BenchmarkStageISkewed runs stage I (AGP → learn → RSC) with Parallelism 2
// over the benchmark's solo-car shape (CAR 30k rows, 5 % errors, τ = 2),
// where one of the three blocks holds two thirds of the abnormal groups:
// ns/op and allocs/op are per pass over the blocks. The table is generated
// and encoded once; rebuilding the index each op consumes is outside the
// timer.
func BenchmarkStageISkewed(b *testing.B) {
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: 30000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 43})
	if err != nil {
		b.Fatal(err)
	}
	enc := dataset.Encode(inj.Dirty, intern.NewDict())
	opts := Options{Tau: 2, Parallelism: 2}.withDefaults()
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		ix, err := index.BuildConfigured(inj.Dirty, rs, index.BuildConfig{Encoded: enc})
		if err != nil {
			b.Fatal(err)
		}
		st = Stats{}
		b.StartTimer()
		if err := stageI(context.Background(), ix.Dict(), len(ix.Blocks), builtBlocks(ix), opts, phaseAll, &st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.AbnormalGroups), "abnormal/op")
	b.ReportMetric(float64(st.LearnIterations), "steps/op")
}

// --- AGP promotion trace + stats ----------------------------------------

// TestAGPPromotionTraced: a block where every group is abnormal promotes
// its largest group, and the promotion is visible both in Stats and as a
// Promoted trace entry naming the promoted group.
func TestAGPPromotionTraced(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("CT", "ST"))
	// Three groups of ≤2 tuples each; τ=2 makes all of them abnormal.
	tb.MustAppend("DOTHAN", "AL")
	tb.MustAppend("DOTHAN", "AL")
	tb.MustAppend("DOTHAM", "AL")
	tb.MustAppend("BOAZ", "AK")
	rs := rules.MustParseStrings("FD: CT -> ST")

	tr := &Trace{}
	res, err := Clean(tb, rs, Options{Tau: 2, TauSet: true, Trace: tr})
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if res.Stats.AGPPromotions != 1 {
		t.Fatalf("AGPPromotions = %d, want 1", res.Stats.AGPPromotions)
	}
	var promo *AGPMerge
	detected := 0
	for i := range tr.AGP {
		if tr.AGP[i].Promoted {
			promo = &tr.AGP[i]
		} else {
			detected++
		}
	}
	if promo == nil {
		t.Fatal("no Promoted entry in trace")
	}
	if promo.SourceKey != "DOTHAN" {
		t.Errorf("promoted group = %q, want DOTHAN (largest)", promo.SourceKey)
	}
	if promo.TargetKey != "" {
		t.Errorf("promotion must have no merge target, got %q", promo.TargetKey)
	}
	if detected != res.Stats.AbnormalGroups {
		t.Errorf("trace holds %d detections, stats says %d — promotions must not count as detections",
			detected, res.Stats.AbnormalGroups)
	}
}

// TestAGPNoPromotionOnNormalBlocks: with a normal group present the counter
// stays zero (the parity suite depends on this staying zero on its
// workloads).
func TestAGPNoPromotionOnNormalBlocks(t *testing.T) {
	tb := dataset.NewTable(dataset.MustSchema("CT", "ST"))
	for i := 0; i < 5; i++ {
		tb.MustAppend("DOTHAN", "AL")
	}
	tb.MustAppend("BOAZ", "AK")
	res, err := Clean(tb, rules.MustParseStrings("FD: CT -> ST"), Options{Tau: 1, TauSet: true})
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if res.Stats.AGPPromotions != 0 {
		t.Errorf("AGPPromotions = %d, want 0", res.Stats.AGPPromotions)
	}
}

// --- rscWinner with every distance zero --------------------------------

// TestRSCWinnerAllDistancesZero: when every pairwise distance in a group is
// zero, every nearest-neighbour distance is 0 and all reliability scores
// collapse to 0 — the winner must then fall to the deterministic tie-break
// (higher count first), not to slice order. The better-supported piece also
// carries the higher weight, as the learner gives it.
func TestRSCWinnerAllDistancesZero(t *testing.T) {
	d := intern.NewDict()
	r := rules.MustParseStrings("FD: CT -> ST")[0]
	// Identical values → all pairwise distances are 0.
	mk := func(ids []int, w float64) *index.Piece {
		p := index.NewPiece(r, d, []string{"BOAZ"}, []string{"AL"})
		p.TupleIDs = ids
		p.Weight = w
		return p
	}
	heavy := mk([]int{1, 3}, 0.6)
	light := mk([]int{2}, 0.4)
	g := &index.Group{Pieces: []*index.Piece{light, heavy}}
	ev := distance.NewEvaluator(distance.Levenshtein{}, d)
	if got := rscWinner(g, ev, make([]float64, 2)); got != heavy {
		t.Errorf("all-zero winner = %+v, want the better-supported piece", got)
	}
	// Same outcome with the slice order flipped.
	g.Pieces = []*index.Piece{heavy, light}
	if got := rscWinner(g, ev, make([]float64, 2)); got != heavy {
		t.Errorf("all-zero winner after permutation = %+v, want the better-supported piece", got)
	}
}

// TestPickHoldsMatchesRSC: a pick's winner holds under new probabilities
// exactly when rscWinner, scoring the same pieces at those weights, picks
// it again. Counts and probabilities are drawn from {1, 2} and {¼, ½}, so
// scores often tie exactly and the tie falls to betterTie, which the pick
// keeps in the sign of each count.
func TestPickHoldsMatchesRSC(t *testing.T) {
	d := intern.NewDict()
	r := rules.MustParseStrings("FD: CT -> ST")[0]
	ev := distance.NewEvaluator(distance.Levenshtein{}, d)
	rng := rand.New(rand.NewSource(53))
	vals := []string{"AL", "AK", "AZ", "ALA", "AR"}
	ties := 0
	for round := 0; round < 3000; round++ {
		g := &index.Group{}
		for _, j := range rng.Perm(len(vals))[:2+rng.Intn(3)] {
			p := index.NewPiece(r, d, []string{"BOAZ"}, []string{vals[j]})
			p.TupleIDs = make([]int, 1+rng.Intn(2))
			g.Pieces = append(g.Pieces, p)
		}
		weigh := func() []float64 {
			probs := make([]float64, len(g.Pieces))
			for j, p := range g.Pieces {
				probs[j] = []float64{0.25, 0.5}[rng.Intn(2)]
				p.Weight = max(probs[j], minPieceWeight)
			}
			return probs
		}
		weigh()
		nn, picks := newPicks([]*index.Group{g})
		was := rscWinner(g, ev, nn[0])
		keepPicks([]*index.Group{g}, []*index.Group{{Pieces: []*index.Piece{was}}}, picks)
		probs := weigh()
		score := make([]float64, len(g.Pieces))
		now := rscWinner(g, ev, score)
		for j, p := range g.Pieces {
			score[j] = float64(p.Count()) * score[j] * p.Weight
		}
		w := slices.Index(g.Pieces, was)
		for j := range score {
			if j != w && score[j] == score[w] {
				ties++
				break
			}
		}
		if got := picks[0].holds(probs); got != (now == was) {
			t.Fatalf("round %d: pick of %d pieces holds = %v, RSC picks %q again = %v", round, len(g.Pieces), got, was.Values(), now == was)
		}
	}
	if ties < 300 {
		t.Fatalf("only %d rounds tie the old winner's score, want 300", ties)
	}
}

// --- permuted-order determinism -----------------------------------------

// permuteIndex shuffles group order within every block and piece order
// within every group — the scan-order degrees of freedom a different block
// build order could produce.
func permuteIndex(ix *index.Index, rng *rand.Rand) {
	for _, b := range ix.Blocks {
		rng.Shuffle(len(b.Groups), func(i, j int) { b.Groups[i], b.Groups[j] = b.Groups[j], b.Groups[i] })
		for _, g := range b.Groups {
			rng.Shuffle(len(g.Pieces), func(i, j int) { g.Pieces[i], g.Pieces[j] = g.Pieces[j], g.Pieces[i] })
		}
	}
}

// TestPermutedOrderDeterminism is the tie-break regression test: stage
// I+II run over a randomly permuted index must produce byte-identical
// repairs to the run over the as-built index. AGP, RSC, and FSCR may only
// depend on group/piece identity, never on slice order.
func TestPermutedOrderDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tb := dataset.NewTable(dataset.MustSchema("HN", "CT", "ST", "PN"))
	cities := []string{"DOTHAN", "DOTHAM", "BOAZ", "BOAS", "MOBILE"}
	states := []string{"AL", "AK", "AI"}
	for i := 0; i < 80; i++ {
		tb.MustAppend(
			fmt.Sprintf("H%d", rng.Intn(6)),
			cities[rng.Intn(len(cities))],
			states[rng.Intn(len(states))],
			fmt.Sprintf("55%03d", rng.Intn(40)),
		)
	}
	rs := rules.MustParseStrings("FD: CT -> ST", "FD: PN, HN -> CT")
	opts := Options{Tau: 2, TauSet: true}.withDefaults()

	run := func(permute bool, seed int64) *dataset.Table {
		ix, err := index.Build(tb, rs)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if permute {
			permuteIndex(ix, rand.New(rand.NewSource(seed)))
		}
		var st Stats
		ctx := context.Background()
		if err := StageAGP(ctx, ix, opts, &st); err != nil {
			t.Fatalf("AGP: %v", err)
		}
		if err := StageLearn(ctx, ix, opts, &st); err != nil {
			t.Fatalf("Learn: %v", err)
		}
		if err := StageRSC(ctx, ix, opts, &st); err != nil {
			t.Fatalf("RSC: %v", err)
		}
		return RunFSCREncoded(tb, ix.Encoded(), FusionBlocksFromIndex(ix), opts, &st)
	}

	want := dumpTable(run(false, 0))
	for seed := int64(1); seed <= 4; seed++ {
		if got := dumpTable(run(true, seed)); got != want {
			t.Fatalf("permutation seed %d changed the repairs:\n--- canonical ---\n%s--- permuted ---\n%s", seed, want, got)
		}
	}
}

func dumpTable(tb *dataset.Table) string {
	out := ""
	for _, t := range tb.Tuples {
		out += fmt.Sprintf("%d %v\n", t.ID, t.Values)
	}
	return out
}
