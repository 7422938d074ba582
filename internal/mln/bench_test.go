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
// what a clean hands the learner: every group's γ supports.
func haiLearnInputs(tb testing.TB) (blocks [][][]float64) {
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
		var groups [][]float64
		for _, g := range blk.Groups {
			counts := make([]float64, len(g.Pieces))
			for j, p := range g.Pieces {
				counts[j] = float64(p.Count())
			}
			groups = append(groups, counts)
		}
		blocks = append(blocks, groups)
	}
	return blocks
}

var sinkWeights []float64

// BenchmarkLearnWeights learns every group of every block of the HAI table
// on the caller: ns/op is per pass over the blocks, and steps/op the
// blocks' most Newton steps on t of any group (Stats.LearnIterations)
// summed.
func BenchmarkLearnWeights(b *testing.B) {
	blocks := haiLearnInputs(b)
	totals, widest := make([]float64, len(blocks)), 0
	for bi, groups := range blocks {
		for _, counts := range groups {
			widest = max(widest, len(counts))
			for _, c := range counts {
				totals[bi] += c
			}
		}
	}
	probs := make([]float64, widest)
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		steps = 0
		for bi, groups := range blocks {
			most := 0
			for _, counts := range groups {
				s, err := mln.Learn(counts, probs[:len(counts)], totals[bi])
				if err != nil {
					b.Fatal(err)
				}
				most = max(most, s)
			}
			sinkWeights = probs
			steps += most
		}
	}
	b.ReportMetric(float64(steps), "steps/op")
}
