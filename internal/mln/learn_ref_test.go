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

// refLearnWeights maximizes the same objective as LearnGroups by
// coordinate-descent Newton: group by group, a from-scratch softmax over the
// whole group before every single-weight update, sweeping until the group's
// own largest step is under refTolerance or the sweep bound. It is the
// oracle LearnGroups must match to within 1e-6 on the groups it converges
// on, and it returns each group's sweep count (0 for one that does not
// learn). Inputs are assumed valid.
func refLearnWeights(groups [][]int, counts []float64, init []float64) ([]float64, []int) {
	w := make([]float64, len(counts))
	copy(w, init)
	iterations := make([]int, len(groups))
	for gi, g := range groups {
		if len(g) < 2 {
			continue
		}
		total := 0.0
		for _, i := range g {
			total += counts[i]
		}
		if total == 0 {
			continue
		}
		probs := make([]float64, len(g))
		sweeps := 0
		for sweeps < refMaxIters {
			sweeps++
			maxDelta := 0.0
			for k, i := range g {
				refSoftmaxInto(probs, w, g)
				p := probs[k]
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
		iterations[gi] = sweeps
	}
	return w, iterations
}

func refSoftmaxInto(dst []float64, w []float64, idx []int) {
	maxW := math.Inf(-1)
	for _, i := range idx {
		if w[i] > maxW {
			maxW = w[i]
		}
	}
	var z float64
	for k, i := range idx {
		dst[k] = math.Exp(w[i] - maxW)
		z += dst[k]
	}
	for k := range dst {
		dst[k] /= z
	}
}

// refProbs is the reference's weights w as LearnGroups returns them: per
// group of two or more, the in-group softmax of refSoftmaxInto; 1 for a
// singleton and for a candidate in no group.
func refProbs(groups [][]int, w []float64) []float64 {
	probs := make([]float64, len(w))
	for i := range probs {
		probs[i] = 1
	}
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		p := make([]float64, len(g))
		refSoftmaxInto(p, w, g)
		for k, i := range g {
			probs[i] = p[k]
		}
	}
	return probs
}

// refPriors is the Eq. 4 prior of every candidate: cᵢ over the block's Σc.
func refPriors(counts []float64) []float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}

// learn runs LearnGroups over a whole block and fails the test on an error or a solve of more
// than 64 steps.
func learn(t *testing.T, groups [][]int, counts []float64) []float64 {
	t.Helper()
	probs := make([]float64, len(counts))
	steps, err := LearnGroups(groups, counts, probs, blockTotal(counts), nil)
	if err != nil {
		t.Fatalf("LearnGroups: %v", err)
	}
	if steps > 64 {
		t.Fatalf("a solve took %d steps", steps)
	}
	return probs
}

// checkAgainstRef fails unless LearnGroups returns, on every group the
// reference converges on, the reference's probabilities to within 1e-6, and
// unless every group gets the same bits when it is learned alone in a block
// of the same Σc. It returns the most sweeps any group made in the
// reference.
func checkAgainstRef(t *testing.T, groups [][]int, counts []float64) int {
	t.Helper()
	ref, sweeps := refLearnWeights(groups, counts, refPriors(counts))
	want := refProbs(groups, ref)
	got := learn(t, groups, counts)
	for gi, g := range groups {
		if sweeps[gi] == refMaxIters {
			continue
		}
		for _, i := range g {
			if d := math.Abs(got[i] - want[i]); !(d <= 1e-6) {
				t.Fatalf("group %d: probability %d = %v, reference %v (|Δ| %.3g)", gi, i, got[i], want[i], d)
			}
		}
	}
	for gi, g := range groups {
		alone := learn(t, [][]int{g}, counts)
		for _, i := range g {
			if math.Float64bits(alone[i]) != math.Float64bits(got[i]) {
				t.Fatalf("group %d learned alone: probability %d = %v, among the others %v", gi, i, alone[i], got[i])
			}
		}
	}
	return slices.Max(append(sweeps, 0))
}

func TestLearnWeightsMatchesReferenceCases(t *testing.T) {
	cases := []struct {
		name   string
		groups [][]int
		counts []float64
		capped bool // the reference runs into its sweep bound unconverged
	}{
		{name: "tied maxima", groups: [][]int{{0, 1, 2}}, counts: []float64{5, 5, 1}},
		{name: "all-equal counts", groups: [][]int{{0, 1, 2, 3}}, counts: []float64{3, 3, 3, 3}},
		{name: "zero-count group beside a live one", groups: [][]int{{0, 1}, {2, 3}}, counts: []float64{0, 0, 4, 1}},
		{name: "singletons", groups: [][]int{{0}, {1}, {2, 3}}, counts: []float64{7, 2, 6, 1}},
		{name: "uncovered candidate", groups: [][]int{{0, 2}}, counts: []float64{3, 9, 1}},
		{name: "interleaved members", groups: [][]int{{4, 0, 2}, {3, 1}}, counts: []float64{1, 8, 2, 1, 30}},
		// −0 and +0 counts: their priors are signed zeros of equal value.
		{name: "signed zero weights", groups: [][]int{{0, 1, 2, 3}}, counts: []float64{2, 1, math.Copysign(0, -1), 0}},
		{name: "sweep cap", groups: [][]int{{0, 1, 2, 3, 4, 5}}, counts: []float64{4000, 900, 70, 5, 1, 1}, capped: true},
		{name: "sweep cap beside a converging group", groups: [][]int{{0, 1, 2, 3, 4, 5}, {6, 7}},
			counts: []float64{4000, 900, 70, 5, 1, 1, 3, 2}, capped: true},
		// A support so large that rounding in counts[i] − total·p leaves the
		// reference's steps near its tolerance for sweeps on end.
		{name: "step rises after a sub-tolerance sweep", groups: [][]int{{0, 1}, {2, 3}},
			counts: []float64{0, 4.7385474302e+10, 7, 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			iters := checkAgainstRef(t, tc.groups, tc.counts)
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
		checkAgainstRef(t, groups, counts)
	}
}

// TestLearnWeightsDuplicateGroups: groups whose members' counts are equal,
// in order, learn the same bits, and each still matches the reference.
func TestLearnWeightsDuplicateGroups(t *testing.T) {
	// groupsOf numbers the candidates group by group: one group per count
	// vector.
	groupsOf := func(counts [][]float64) (groups [][]int, c []float64) {
		for _, gc := range counts {
			var g []int
			for _, x := range gc {
				g = append(g, len(c))
				c = append(c, x)
			}
			groups = append(groups, g)
		}
		return groups, c
	}
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
		counts [][]float64
		capped bool
	}{
		{name: "many identical groups", counts: repeat(40, []float64{5, 2, 1})},
		{name: "identical groups beside distinct ones", counts: append(repeat(6, []float64{9, 9, 1, 4}), []float64{9, 9, 4, 1}, []float64{9, 9, 1}, []float64{9, 9, 1, 4, 0})},
		{name: "duplicates across chunk seams", counts: seams},
		{name: "duplicates of a capped group", counts: [][]float64{capped, {3, 2}, capped, capped, {3, 2}}, capped: true},
		{name: "zero-count duplicates and singletons", counts: mixed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			groups, counts := groupsOf(tc.counts)
			iters := checkAgainstRef(t, groups, counts)
			if tc.capped && iters != refMaxIters {
				t.Errorf("the reference converged in %d sweeps; the case is meant to hit its %d-sweep bound", iters, refMaxIters)
			}
			got := learn(t, groups, counts)
			first := map[string]int{}
			for gi, g := range groups {
				key := fmtCounts(counts, g)
				f, ok := first[key]
				if !ok {
					first[key] = gi
					continue
				}
				for k, i := range g {
					if math.Float64bits(got[i]) != math.Float64bits(got[groups[f][k]]) {
						t.Fatalf("group %d: probability %v, its duplicate group %d %v", gi, got[i], f, got[groups[f][k]])
					}
				}
			}
		})
	}
	// The same counts in blocks of another Σc have other priors: each
	// matches the reference, and the two learn different weights.
	t.Run("equal counts, different init", func(t *testing.T) {
		small, big := []float64{3, 1, 2}, []float64{3, 1, 2, 40}
		g := [][]int{{0, 1, 2}}
		checkAgainstRef(t, g, small)
		checkAgainstRef(t, g, big)
		a, b := learn(t, g, small), learn(t, g, big)
		if a[0] == b[0] {
			t.Fatalf("the group learned %v in a block of Σc 6 and %v in a block of Σc 46", a[:3], b[:3])
		}
	})
}

// fmtCounts is group g's counts, in member order, as a map key.
func fmtCounts(counts []float64, g []int) string {
	c := make([]float64, len(g))
	for k, i := range g {
		c[k] = counts[i]
	}
	return fmt.Sprint(c)
}
