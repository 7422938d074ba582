package mln_test

import (
	"context"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/errgen"
	"mlnclean/internal/index"
	"mlnclean/internal/mln"
)

// haiLearnInputs returns, per rule block of the HAI 300×14 table at 15 %
// errors after AGP at τ = 3 (the benchmark's solo-hai lane 0 at seed 42),
// what a clean hands the learner: the groups as candidate-index runs and
// every γ's support.
func haiLearnInputs(tb testing.TB) (groups [][][]int, counts [][]float64) {
	tb.Helper()
	const seed = 4200
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 300, Measures: 14, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.15, ReplacementRatio: 0.5, Seed: seed*1_000_003 + 17})
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := index.Build(inj.Dirty, rs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := core.StageAGP(context.Background(), ix, core.Options{Tau: 3}, new(core.Stats)); err != nil {
		tb.Fatal(err)
	}
	for _, blk := range ix.Blocks {
		var bg [][]int
		var bc []float64
		for _, g := range blk.Groups {
			var idx []int
			for _, p := range g.Pieces {
				idx = append(idx, len(bc))
				bc = append(bc, float64(p.Count()))
			}
			bg = append(bg, idx)
		}
		groups, counts = append(groups, bg), append(counts, bc)
	}
	return groups, counts
}

var sinkWeights []float64

// BenchmarkLearnWeights learns every block of the HAI table on the caller:
// ns/op is per pass over the blocks, and steps/op the blocks' most Newton
// steps on t of any group (Stats.LearnIterations) summed.
func BenchmarkLearnWeights(b *testing.B) {
	groups, counts := haiLearnInputs(b)
	probs, totals := make([][]float64, len(counts)), make([]float64, len(counts))
	for i := range counts {
		probs[i] = make([]float64, len(counts[i]))
		for _, c := range counts[i] {
			totals[i] += c
		}
	}
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		steps = 0
		for bi := range groups {
			s, err := mln.LearnGroups(groups[bi], counts[bi], probs[bi], totals[bi], nil)
			if err != nil {
				b.Fatal(err)
			}
			sinkWeights = probs[bi]
			steps += s
		}
	}
	b.ReportMetric(float64(steps), "steps/op")
}
