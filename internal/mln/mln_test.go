package mln

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blockTotal is the Σc of a block whose candidates counts holds, summed in
// index order.
func blockTotal(counts []float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	return total
}

// spread returns, for group g, the largest difference between two members'
// kᵢ = σ²(cᵢ − C·pᵢ) + w⁰ᵢ − ln pᵢ, computed from the probabilities alone. At
// the maximum of L every kᵢ is ln Z: wᵢ − w⁰ᵢ = σ²(cᵢ − C·pᵢ) and
// wᵢ = ln pᵢ + ln Z.
func spread(g []int, counts, probs []float64, total float64) float64 {
	var support float64
	for _, i := range g {
		support += counts[i]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range g {
		k := sigma2*(counts[i]-support*probs[i]) + counts[i]/total - math.Log(probs[i])
		lo, hi = min(lo, k), max(hi, k)
	}
	return hi - lo
}

// TestPriorWeights: the prior centre is the Eq. 4 weight cᵢ / Σc over the
// whole block, candidates outside the group included, not over the group.
func TestPriorWeights(t *testing.T) {
	counts := []float64{1, 2, 5}
	g := []int{0, 1}
	probs := learn(t, [][]int{g}, counts)
	if s := spread(g, counts, probs, 8); s > 1e-12 {
		t.Errorf("stationarity spread %.3g against the block's Σc", s)
	}
	if s := spread(g, counts, probs, 3); s < 1e-3 {
		t.Errorf("stationarity spread %.3g against the group's Σc: the prior is not block-wide", s)
	}
}

// TestLearnWeightsStationary: each group's probabilities are the maximum of
// its objective, checked from the probabilities alone. On blocks of groups
// of 2–2,000 members with counts up to 1e7 and zero-count members, every
// member's kᵢ (spread) is one constant across its group to within
// 1e-7·σ²(1 + C), each group's probabilities sum to 1 within 1e-12, and no
// solve takes more than 64 steps.
func TestLearnWeightsStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	worst, most := 0.0, 0
	for round := range 60 {
		var groups [][]int
		var counts []float64
		for range 1 + rng.Intn(4) {
			size := 2 + rng.Intn(12)
			switch rng.Intn(4) {
			case 0:
				size = 2 + rng.Intn(1999)
			case 1:
				size = 2
			}
			top := []float64{3, 50, 2000, 1e5, 1e7}[rng.Intn(5)]
			g := make([]int, size)
			for k := range g {
				g[k] = len(counts)
				var c float64
				switch rng.Intn(4) {
				case 0: // no support
				case 1:
					c = math.Floor(top * rng.Float64())
				default:
					c = float64(1 + rng.Intn(5))
				}
				counts = append(counts, c)
			}
			counts[g[rng.Intn(size)]] = top
			groups = append(groups, g)
		}
		if round%5 == 0 {
			// A dominant member among members without support.
			g := make([]int, 2+rng.Intn(1999))
			for k := range g {
				g[k] = len(counts)
				counts = append(counts, 0)
			}
			counts[g[0]] = float64(1 + rng.Intn(3))
			groups = append(groups, g)
		}
		var total float64
		for _, c := range counts {
			total += c
		}
		probs := make([]float64, len(counts))
		steps, err := LearnGroups(groups, counts, probs, blockTotal(counts), nil)
		if err != nil {
			t.Fatal(err)
		}
		if steps > 64 {
			t.Fatalf("round %d: a solve took %d steps", round, steps)
		}
		most = max(most, steps)
		for gi, g := range groups {
			var support, sum float64
			for _, i := range g {
				support += counts[i]
				sum += probs[i]
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("round %d, group %d of %d members: probabilities sum to 1%+.3g", round, gi, len(g), sum-1)
			}
			bound := 1e-7 * sigma2 * (1 + support)
			s := spread(g, counts, probs, total)
			if !(s <= bound) {
				t.Fatalf("round %d, group %d of %d members, C = %g: stationarity spread %.3g, bound %.3g", round, gi, len(g), support, s, bound)
			}
			worst = max(worst, s/bound)
		}
	}
	t.Logf("worst spread %.3g of its bound, at most %d steps", worst, most)
}

// TestLearnWeightsEqualSupportEqualBits: members of one group with equal
// counts have equal support and equal priors, so they learn bit-equal
// probabilities, whatever their order in the group.
func TestLearnWeightsEqualSupportEqualBits(t *testing.T) {
	for _, counts := range [][]float64{{3, 3, 1}, {1, 3, 3}, {3, 1, 3}, {5, 5, 5, 5, 2, 5}, {0, 0, 4, 0}, {9, 1, 9, 1, 9}} {
		g := make([]int, len(counts))
		for k := range g {
			g[k] = k
		}
		probs := learn(t, [][]int{g}, counts)
		for a := range g {
			for b := range g {
				if counts[a] == counts[b] && math.Float64bits(probs[a]) != math.Float64bits(probs[b]) {
					t.Fatalf("counts %v: members %d and %d learn %v and %v", counts, a, b, probs[a], probs[b])
				}
			}
		}
	}
}

func TestLearnWeightsMonotone(t *testing.T) {
	// Within a group, higher support must learn a higher weight.
	w := learn(t, [][]int{{0, 1}}, []float64{8, 1})
	if w[0] <= w[1] {
		t.Errorf("weights not monotone in counts: %v", w)
	}
	// The in-group probability approaches the count proportions.
	if math.Abs(w[0]-8.0/9.0) > 0.05 {
		t.Errorf("softmax probability %.3f, want ≈ %.3f", w[0], 8.0/9.0)
	}
}

func TestLearnWeightsMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		ca, cb := float64(a%50)+1, float64(b%50)+1
		w := make([]float64, 2)
		if _, err := LearnGroups([][]int{{0, 1}}, []float64{ca, cb}, w, ca+cb, nil); err != nil {
			return false
		}
		switch {
		case ca > cb:
			return w[0] > w[1]
		case ca < cb:
			return w[0] < w[1]
		default:
			return w[0] == w[1]
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLearnWeightsValidation(t *testing.T) {
	if _, err := LearnGroups([][]int{{0}}, []float64{1}, make([]float64, 2), 1, nil); err == nil {
		t.Error("probs length mismatch should fail")
	}
	if _, err := LearnGroups([][]int{{0, 0}}, []float64{1, 1}, make([]float64, 2), 2, nil); err == nil {
		t.Error("duplicate group membership should fail")
	}
	if _, err := LearnGroups([][]int{{0}, {1, 0}}, []float64{1, 1}, make([]float64, 2), 2, nil); err == nil {
		t.Error("membership in two groups should fail")
	}
	if _, err := LearnGroups([][]int{{5}}, []float64{1}, make([]float64, 1), 1, nil); err == nil {
		t.Error("out-of-range index should fail")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := LearnGroups([][]int{{0, 1}}, []float64{c, 1}, make([]float64, 2), c+1, nil); err == nil {
			t.Errorf("count %v should fail", c)
		}
	}
}

// TestLearnWeightsSingletonGroupIsCertain: a singleton competes with
// nothing, and so does a candidate in no group.
func TestLearnWeightsSingletonGroupIsCertain(t *testing.T) {
	w := make([]float64, 2)
	steps, err := LearnGroups([][]int{{0}}, []float64{7, 3}, w, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 1 || w[1] != 1 || steps != 0 {
		t.Errorf("singleton probability %v, uncovered %v, %d steps; want 1, 1, 0", w[0], w[1], steps)
	}
}

// TestLearnWeightsConverges: a group at the reference learner's sweep
// bound is a handful of steps for the solve.
func TestLearnWeightsConverges(t *testing.T) {
	w := make([]float64, 6)
	steps, err := LearnGroups([][]int{{0, 1, 2, 3, 4, 5}}, []float64{4000, 900, 70, 5, 1, 1}, w, 4977, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps < 1 || steps > 16 {
		t.Errorf("the solve took %d steps", steps)
	}
}

// TestLearnGroupsMatchesWholeBlock: a group learned alone with its block's
// Σc gets the bits LearnGroups gives it over the whole block, and reports
// the Newton steps its own solve took; a total under the candidates' sum is
// refused.
func TestLearnGroupsMatchesWholeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for round := 0; round < 40; round++ {
		var groups [][]int
		var counts []float64
		for g := 0; g < 1+rng.Intn(12); g++ {
			members := make([]int, 1+rng.Intn(6))
			for k := range members {
				members[k] = len(counts)
				counts = append(counts, float64(rng.Intn(40)))
			}
			groups = append(groups, members)
		}
		var total float64
		for _, c := range counts {
			total += c
		}
		whole := make([]float64, len(counts))
		most, err := LearnGroups(groups, counts, whole, blockTotal(counts), nil)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for gi, g := range groups {
			// The group's candidates alone, renumbered from 0.
			sub, local := make([]float64, len(g)), make([]int, len(g))
			for k, i := range g {
				sub[k], local[k] = counts[i], k
			}
			probs, steps := make([]float64, len(g)), make([]int, 1)
			n, err := LearnGroups([][]int{local}, sub, probs, total, steps)
			if err != nil {
				t.Fatal(err)
			}
			if n != steps[0] {
				t.Fatalf("round %d, group %d: returned %d steps, wrote %d", round, gi, n, steps[0])
			}
			got = max(got, n)
			for k, i := range g {
				if math.Float64bits(probs[k]) != math.Float64bits(whole[i]) {
					t.Fatalf("round %d, group %d member %d: %v alone, %v in the block", round, gi, k, probs[k], whole[i])
				}
			}
		}
		if got != most {
			t.Fatalf("round %d: the groups' most steps %d, the whole block's %d", round, got, most)
		}
	}
	if _, err := LearnGroups([][]int{{0, 1}}, []float64{2, 3}, make([]float64, 2), 4, nil); err == nil {
		t.Error("a total under the candidates' sum was accepted")
	}
	if _, err := LearnGroups([][]int{{0, 1}}, []float64{2, 3}, make([]float64, 2), math.Inf(1), nil); err == nil {
		t.Error("an infinite total was accepted")
	}
}
