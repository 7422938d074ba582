package mln_test

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
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

// swept counts, in one block's groups, the single-weight Newton updates the
// learner makes and the groups that learn but share another's weights: a
// group learns when it has two members or more and some support, the first
// group of each distinct (count, prior) sequence is the one swept, and it
// sweeps as often as it does learned alone — sweeps × its members updates.
func swept(tb testing.TB, groups [][]int, counts, priors []float64) (updates, shared int) {
	seen := make(map[string]bool)
	for _, g := range groups {
		total := 0.0
		var key []byte
		for _, i := range g {
			total += counts[i]
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(counts[i]))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(priors[i]))
		}
		switch {
		case len(g) < 2 || total == 0:
		case seen[string(key)]:
			shared++
		default:
			seen[string(key)] = true
			_, sweeps, err := mln.LearnWeights([][]int{g}, counts, priors, 1, nil, nil)
			if err != nil {
				tb.Fatal(err)
			}
			updates += sweeps[0] * len(g)
		}
	}
	return updates, shared
}

// BenchmarkLearnWeights learns every block of the HAI table as one chunk on
// the caller: ns/op is per pass over the blocks, ns/update that divided by
// the single-weight Newton updates the pass made (each group swept its own
// sweep count × its members), sweeps/op the blocks' sweep counts summed, and
// shared_groups/op the groups that took another's weights instead of
// learning their own.
func BenchmarkLearnWeights(b *testing.B) {
	groups, counts := haiLearnInputs(b)
	priors := make([][]float64, len(counts))
	updates, shared := 0, 0
	for i := range counts {
		priors[i] = mln.PriorWeights(counts[i])
		u, s := swept(b, groups[i], counts[i], priors[i])
		updates, shared = updates+u, shared+s
	}
	sweeps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sweeps = 0
		for bi := range groups {
			w, iters, err := mln.LearnWeights(groups[bi], counts[bi], priors[bi], 1, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			sinkWeights = w
			sweeps += slices.Max(iters)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(updates), "ns/update")
	b.ReportMetric(float64(updates), "updates/op")
	b.ReportMetric(float64(sweeps), "sweeps/op")
	b.ReportMetric(float64(shared), "shared_groups/op")
}
