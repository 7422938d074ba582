package mln

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The reference learner's settings: damped diagonal Newton, the optimizer
// Tuffy uses, run to a step tolerance under a sweep bound.
const (
	refMaxIters  = 100
	refTolerance = 1e-6
	refDamping   = 1e-3
	refMaxStep   = 2.0
)

// refLearnWeights maximizes the same objective as Learn by
// coordinate-descent Newton: a from-scratch softmax over the whole group
// before every single-weight update, sweeping until the group's own largest
// step is under refTolerance or the sweep bound. It is the oracle Learn
// must match to within 1e-6 on the groups it converges on, and it returns
// the group's sweep count (0 for one that does not learn). Inputs are
// assumed valid.
func refLearnWeights(counts, init []float64) ([]float64, int) {
	w := slices.Clone(init)
	if len(counts) < 2 {
		return w, 0
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return w, 0
	}
	probs := make([]float64, len(counts))
	sweeps := 0
	for sweeps < refMaxIters {
		sweeps++
		maxDelta := 0.0
		for i := range counts {
			refSoftmaxInto(probs, w)
			p := probs[i]
			grad := counts[i] - total*p - (w[i]-init[i])/sigma2
			hess := total*p*(1-p) + 1/sigma2 + refDamping
			step := grad / hess
			if step > refMaxStep {
				step = refMaxStep
			} else if step < -refMaxStep {
				step = -refMaxStep
			}
			w[i] += step
			if d := math.Abs(step); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < refTolerance {
			break
		}
	}
	return w, sweeps
}

func refSoftmaxInto(dst []float64, w []float64) {
	maxW := math.Inf(-1)
	for _, x := range w {
		if x > maxW {
			maxW = x
		}
	}
	var z float64
	for i, x := range w {
		dst[i] = math.Exp(x - maxW)
		z += dst[i]
	}
	for i := range dst {
		dst[i] /= z
	}
}

// refProbs is the reference's weights w as Learn returns them: the in-group
// softmax of refSoftmaxInto for a group of two or more, 1 for a singleton.
func refProbs(w []float64) []float64 {
	probs := make([]float64, len(w))
	if len(w) < 2 {
		for i := range probs {
			probs[i] = 1
		}
		return probs
	}
	refSoftmaxInto(probs, w)
	return probs
}

// refPriors is the Eq. 4 prior of every member of a group: cᵢ over the
// block's Σc.
func refPriors(counts []float64, total float64) []float64 {
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}

// learn runs Learn over every group of a block, each group's counts in
// member order, with the block's Σc, and fails the test on an error or a
// solve of more than 64 steps. It returns each group's probabilities.
func learn(t *testing.T, block [][]float64) [][]float64 {
	t.Helper()
	total := blockTotal(block)
	probs := make([][]float64, len(block))
	for gi, counts := range block {
		probs[gi] = make([]float64, len(counts))
		steps, err := Learn(counts, probs[gi], total)
		if err != nil {
			t.Fatalf("Learn: %v", err)
		}
		if steps > 64 {
			t.Fatalf("group %d: the solve took %d steps", gi, steps)
		}
	}
	return probs
}

// checkAgainstRef fails unless Learn returns, on every group of the block
// the reference converges on, the reference's probabilities to within
// 1e-6. It returns the most sweeps any group made in the reference.
func checkAgainstRef(t *testing.T, block [][]float64) int {
	t.Helper()
	total := blockTotal(block)
	got := learn(t, block)
	most := 0
	for gi, counts := range block {
		ref, sweeps := refLearnWeights(counts, refPriors(counts, total))
		most = max(most, sweeps)
		if sweeps == refMaxIters {
			continue
		}
		want := refProbs(ref)
		for i := range counts {
			if d := math.Abs(got[gi][i] - want[i]); !(d <= 1e-6) {
				t.Fatalf("group %d: probability %d = %v, reference %v (|Δ| %.3g)", gi, i, got[gi][i], want[i], d)
			}
		}
	}
	return most
}

func TestLearnWeightsMatchesReferenceCases(t *testing.T) {
	cases := []struct {
		name   string
		block  [][]float64
		capped bool // the reference runs into its sweep bound unconverged
	}{
		{name: "tied maxima", block: [][]float64{{5, 5, 1}}},
		{name: "all-equal counts", block: [][]float64{{3, 3, 3, 3}}},
		{name: "zero-count group beside a live one", block: [][]float64{{0, 0}, {4, 1}}},
		{name: "singletons", block: [][]float64{{7}, {2}, {6, 1}}},
		// Members in no order of their counts.
		{name: "interleaved members", block: [][]float64{{30, 1, 2}, {1, 8}}},
		// −0 and +0 counts: their priors are signed zeros of equal value.
		{name: "signed zero weights", block: [][]float64{{2, 1, math.Copysign(0, -1), 0}}},
		{name: "sweep cap", block: [][]float64{{4000, 900, 70, 5, 1, 1}}, capped: true},
		{name: "sweep cap beside a converging group", block: [][]float64{{4000, 900, 70, 5, 1, 1}, {3, 2}}, capped: true},
		// A support so large that rounding in counts[i] − total·p leaves the
		// reference's steps near its tolerance for sweeps on end.
		{name: "step rises after a sub-tolerance sweep", block: [][]float64{{0, 4.7385474302e+10}, {7, 10}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			iters := checkAgainstRef(t, tc.block)
			if tc.capped && iters != refMaxIters {
				t.Errorf("the reference converged in %d sweeps; the case is meant to hit its %d-sweep bound", iters, refMaxIters)
			}
		})
	}
}

func TestLearnWeightsMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(60)
		perm := rng.Perm(n)
		var groups [][]int
		for len(perm) > 0 {
			size := 1 + rng.Intn(8)
			if rng.Intn(10) == 0 {
				size = 1 + rng.Intn(40) // one long group among short ones
			}
			size = min(size, len(perm))
			groups = append(groups, perm[:size])
			perm = perm[size:]
		}
		counts := make([]float64, n)
		for i := range counts {
			switch rng.Intn(4) {
			case 0:
				counts[i] = float64(rng.Intn(3)) // zeros and ties
			case 1:
				counts[i] = float64(1 + rng.Intn(2000))
			default:
				counts[i] = float64(1 + rng.Intn(12))
			}
		}
		// Each group's members are a random draw of the block's
		// candidates.
		block := make([][]float64, len(groups))
		for gi, g := range groups {
			for _, i := range g {
				block[gi] = append(block[gi], counts[i])
			}
		}
		checkAgainstRef(t, block)
	}
}

// TestLearnWeightsDuplicateGroups: groups whose members' counts are equal,
// in order, learn the same bits, and each still matches the reference.
func TestLearnWeightsDuplicateGroups(t *testing.T) {
	repeat := func(n int, v []float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	capped := []float64{4000, 900, 70, 5, 1, 1}
	var seams [][]float64
	for i := range 10 {
		// Ten distinct groups of 2–6 members, each followed by two groups
		// that recur all along the list — or, after the first and the sixth,
		// by two copies of that group.
		g := make([]float64, 2+i%5)
		for k := range g {
			g[k] = float64(1 + (i*7+k*3)%11)
		}
		seams = append(seams, g, []float64{1, 3}, []float64{1, 5, 1, 3, 2, 6})
		if i == 0 || i == 5 {
			seams[len(seams)-2], seams[len(seams)-1] = g, g
		}
	}
	mixed := [][]float64{{0, 0}, {7}, {0, 0, 0}, {3, 1}, {7}, {0, 0}, {3, 1}, {0, 0, 0}, {2}}

	cases := []struct {
		name   string
		block  [][]float64
		capped bool
	}{
		{name: "many identical groups", block: repeat(40, []float64{5, 2, 1})},
		{name: "identical groups beside distinct ones", block: append(repeat(6, []float64{9, 9, 1, 4}), []float64{9, 9, 4, 1}, []float64{9, 9, 1}, []float64{9, 9, 1, 4, 0})},
		{name: "duplicates across chunk seams", block: seams},
		{name: "duplicates of a capped group", block: [][]float64{capped, {3, 2}, capped, capped, {3, 2}}, capped: true},
		{name: "zero-count duplicates and singletons", block: mixed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			iters := checkAgainstRef(t, tc.block)
			if tc.capped && iters != refMaxIters {
				t.Errorf("the reference converged in %d sweeps; the case is meant to hit its %d-sweep bound", iters, refMaxIters)
			}
			got := learn(t, tc.block)
			first := map[string]int{}
			for gi, counts := range tc.block {
				key := fmt.Sprint(counts)
				f, ok := first[key]
				if !ok {
					first[key] = gi
					continue
				}
				for k := range counts {
					if math.Float64bits(got[gi][k]) != math.Float64bits(got[f][k]) {
						t.Fatalf("group %d: probability %v, its duplicate group %d %v", gi, got[gi][k], f, got[f][k])
					}
				}
			}
		})
	}
	// The same counts in blocks of another Σc have other priors: each
	// matches the reference, and the two learn different weights.
	t.Run("equal counts, different init", func(t *testing.T) {
		small, big := [][]float64{{3, 1, 2}}, [][]float64{{3, 1, 2}, {40}}
		checkAgainstRef(t, small)
		checkAgainstRef(t, big)
		a, b := learn(t, small), learn(t, big)
		if a[0][0] == b[0][0] {
			t.Fatalf("the group learned %v in a block of Σc 6 and %v in a block of Σc 46", a[0], b[0])
		}
	})
}
