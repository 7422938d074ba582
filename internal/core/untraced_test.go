package core

import (
	"reflect"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/errgen"
	"mlnclean/internal/index"
)

// stageIFixture is a contested HAI table (60 providers × 8 measures, 15 %
// errors) and its index, built once, so that identical copies of its blocks
// can be built on one dictionary and measured on one evaluator.
func stageIFixture(t *testing.T) (*dataset.Table, *index.Index, Options) {
	t.Helper()
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 60, Measures: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.15, ReplacementRatio: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(inj.Dirty, rs)
	if err != nil {
		t.Fatal(err)
	}
	return inj.Dirty, ix, Options{Tau: 3}.withDefaults()
}

// blockCopies builds n fresh copies of every block of ix, the index of tb,
// each run through AGP and weight learning when forRSC is set — RSC's input.
func blockCopies(t *testing.T, tb *dataset.Table, ix *index.Index, opts Options, ev *distance.Evaluator, n int, forRSC bool) [][]*index.Block {
	t.Helper()
	out := make([][]*index.Block, n)
	for k := range out {
		for bi, b := range ix.Blocks {
			c := index.BuildBlockFor(tb, ix.Encoded(), b.Rule)
			if forRSC {
				agp(bi, c, opts.Tau, soloCrew(ev), opts.MergeCapRatio, nil)
				if _, err := learnBlockWeights(c, nil); err != nil {
					t.Fatal(err)
				}
			}
			out[k] = append(out[k], c)
		}
	}
	return out
}

// TestStageIUntracedAllocs: without a trace, AGP and RSC build no trace
// records — no decoded values, copied tuple lists or rule attribute slices —
// and RSC's reliability scores share one flat distance buffer. The
// evaluator is warm (every copy is the same block on the same dictionary),
// so what is left is the phases' own bookkeeping. A traced run of the same
// blocks must leave them in the same state and record one entry per
// decision.
func TestStageIUntracedAllocs(t *testing.T) {
	tb, ix, opts := stageIFixture(t)
	ev := distance.NewEvaluator(opts.Metric, ix.Dict())
	const runs = 4

	agpIn := blockCopies(t, tb, ix, opts, ev, runs+1, false)
	k := 0
	agpAllocs := testing.AllocsPerRun(runs, func() {
		for bi, b := range agpIn[k] {
			agp(bi, b, opts.Tau, soloCrew(ev), opts.MergeCapRatio, nil)
		}
		k++
	})
	rscIn := blockCopies(t, tb, ix, opts, ev, runs+1, true)
	k = 0
	rscAllocs := testing.AllocsPerRun(runs, func() {
		for bi, b := range rscIn[k] {
			rsc(bi, b, soloCrew(ev), nil, nil)
		}
		k++
	})

	// The traced reference over fresh copies: the decisions the bounds are
	// stated in, and the block state an untraced run must reproduce.
	traced := blockCopies(t, tb, ix, opts, ev, 1, false)[0]
	tr := &Trace{}
	abnormal, promotions, contested, rewrites := 0, 0, 0, 0
	for bi, b := range traced {
		ab, _, pr, _, _ := agp(bi, b, opts.Tau, soloCrew(ev), opts.MergeCapRatio, tr)
		abnormal, promotions = abnormal+ab, promotions+pr
		if _, err := learnBlockWeights(b, nil); err != nil {
			t.Fatal(err)
		}
		for _, g := range b.Groups {
			if len(g.Pieces) > 1 {
				contested++
			}
		}
		rewrites += rsc(bi, b, soloCrew(ev), tr, nil)
	}
	if abnormal < 50 || contested < 50 {
		t.Fatalf("fixture not contested: %d abnormal groups, %d contested groups", abnormal, contested)
	}
	if len(tr.AGP) != abnormal+promotions || len(tr.RSC) != rewrites {
		t.Fatalf("trace holds %d AGP and %d RSC entries, want %d and %d",
			len(tr.AGP), len(tr.RSC), abnormal+promotions, rewrites)
	}
	for bi := range traced {
		if g, w := blockShape(rscIn[runs][bi]), blockShape(traced[bi]); !reflect.DeepEqual(g, w) {
			t.Fatalf("block %d: untraced stage I leaves %q, traced %q", bi, g, w)
		}
	}

	// A trace record costs one to three allocations per abnormal group and
	// six per rewrite, so these bounds hold only when none is built.
	if agpAllocs >= float64(2*abnormal) {
		t.Errorf("untraced agp allocates %.0f times for %d abnormal groups, want < 2 per group", agpAllocs, abnormal)
	}
	if rscAllocs >= float64(2*contested) {
		t.Errorf("untraced rsc allocates %.0f times for %d contested groups (%d rewrites), want < 2 per group",
			rscAllocs, contested, rewrites)
	}
}
