package mln

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blockTotal is the Σc of a block whose groups' counts block holds, summed
// group by group in member order.
func blockTotal(block [][]float64) float64 {
	var total float64
	for _, counts := range block {
		for _, c := range counts {
			total += c
		}
	}
	return total
}

// spread returns, for one group, the largest difference between two
// members' kᵢ = σ²(cᵢ − C·pᵢ) + w⁰ᵢ − ln pᵢ, computed from the probabilities
// alone. At the maximum of L every kᵢ is ln Z: wᵢ − w⁰ᵢ = σ²(cᵢ − C·pᵢ) and
// wᵢ = ln pᵢ + ln Z.
func spread(counts, probs []float64, total float64) float64 {
	var support float64
	for _, c := range counts {
		support += c
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, c := range counts {
		k := sigma2*(c-support*probs[i]) + c/total - math.Log(probs[i])
		lo, hi = min(lo, k), max(hi, k)
	}
	return hi - lo
}

// TestPriorWeights: the prior centre is the Eq. 4 weight cᵢ / Σc over the
// whole block, candidates outside the group included, not over the group.
func TestPriorWeights(t *testing.T) {
	block := [][]float64{{1, 2}, {5}}
	probs := learn(t, block)
	if s := spread(block[0], probs[0], 8); s > 1e-12 {
		t.Errorf("stationarity spread %.3g against the block's Σc", s)
	}
	if s := spread(block[0], probs[0], 3); s < 1e-3 {
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
		var block [][]float64
		for range 1 + rng.Intn(4) {
			size := 2 + rng.Intn(12)
			switch rng.Intn(4) {
			case 0:
				size = 2 + rng.Intn(1999)
			case 1:
				size = 2
			}
			top := []float64{3, 50, 2000, 1e5, 1e7}[rng.Intn(5)]
			g := make([]float64, size)
			for k := range g {
				switch rng.Intn(4) {
				case 0: // no support
				case 1:
					g[k] = math.Floor(top * rng.Float64())
				default:
					g[k] = float64(1 + rng.Intn(5))
				}
			}
			g[rng.Intn(size)] = top
			block = append(block, g)
		}
		if round%5 == 0 {
			// A dominant member among members without support.
			g := make([]float64, 2+rng.Intn(1999))
			g[0] = float64(1 + rng.Intn(3))
			block = append(block, g)
		}
		total := blockTotal(block)
		for gi, counts := range block {
			probs := make([]float64, len(counts))
			steps, err := Learn(counts, probs, total)
			if err != nil {
				t.Fatal(err)
			}
			if steps > 64 {
				t.Fatalf("round %d, group %d: the solve took %d steps", round, gi, steps)
			}
			most = max(most, steps)
			var support, sum float64
			for i, c := range counts {
				support += c
				sum += probs[i]
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("round %d, group %d of %d members: probabilities sum to 1%+.3g", round, gi, len(counts), sum-1)
			}
			bound := 1e-7 * sigma2 * (1 + support)
			s := spread(counts, probs, total)
			if !(s <= bound) {
				t.Fatalf("round %d, group %d of %d members, C = %g: stationarity spread %.3g, bound %.3g", round, gi, len(counts), support, s, bound)
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
		probs := learn(t, [][]float64{counts})[0]
		for a := range counts {
			for b := range counts {
				if counts[a] == counts[b] && math.Float64bits(probs[a]) != math.Float64bits(probs[b]) {
					t.Fatalf("counts %v: members %d and %d learn %v and %v", counts, a, b, probs[a], probs[b])
				}
			}
		}
	}
}

func TestLearnWeightsMonotone(t *testing.T) {
	// Within a group, higher support must learn a higher weight.
	w := learn(t, [][]float64{{8, 1}})[0]
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
		if _, err := Learn([]float64{ca, cb}, w, ca+cb); err != nil {
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
	if _, err := Learn([]float64{1}, make([]float64, 2), 1); err == nil {
		t.Error("probs length mismatch should fail")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Learn([]float64{c, 1}, make([]float64, 2), c+1); err == nil {
			t.Errorf("count %v should fail", c)
		}
	}
	if _, err := Learn([]float64{2, 3}, make([]float64, 2), 4); err == nil {
		t.Error("a total under the group's support was accepted")
	}
	if _, err := Learn([]float64{2, 3}, make([]float64, 2), math.Inf(1)); err == nil {
		t.Error("an infinite total was accepted")
	}
}

// TestLearnWeightsSingletonGroupIsCertain: a singleton competes with
// nothing.
func TestLearnWeightsSingletonGroupIsCertain(t *testing.T) {
	w := make([]float64, 1)
	steps, err := Learn([]float64{7}, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 1 || steps != 0 {
		t.Errorf("singleton probability %v, %d steps; want 1, 0", w[0], steps)
	}
}

// TestLearnWeightsConverges: a group at the reference learner's sweep
// bound is a handful of steps for the solve.
func TestLearnWeightsConverges(t *testing.T) {
	w := make([]float64, 6)
	steps, err := Learn([]float64{4000, 900, 70, 5, 1, 1}, w, 4977)
	if err != nil {
		t.Fatal(err)
	}
	if steps < 1 || steps > 16 {
		t.Errorf("the solve took %d steps", steps)
	}
}

// TestLearnDriftBound: moving a block's Σc moves every prior centre
// w⁰ᵢ = cᵢ/Σc by cᵢ·|1/Σc − 1/Σc′|, and the optimum of the strictly concave
// objective moves no further than its prior centre does (‖Δw‖₂ ≤ ‖Δw⁰‖₂).
// So the log ratio of two members' probabilities, wᵢ − wⱼ, moves by at
// most √2·‖c‖₂·|1/Σc − 1/Σc′|, up to the solve's rounding, and members with
// equal counts stay tied. This is the bound that lets an insert or delete
// skip learning a group whose pick margin exceeds it.
func TestLearnDriftBound(t *testing.T) {
	const eps = 1e-9
	rng := rand.New(rand.NewSource(33))
	worst := 0.0 // the largest move seen, as a share of its bound
	for draw := 0; draw < 3000; draw++ {
		counts := make([]float64, 2+rng.Intn(7))
		span := []int{3, 20, 1000}[rng.Intn(3)] // a small span draws ties
		var support, norm2 float64
		for i := range counts {
			counts[i] = float64(1 + rng.Intn(span))
			support += counts[i]
			norm2 += counts[i] * counts[i]
		}
		other := []float64{0, 1, 10, 1000, 1e5}
		total := support + other[rng.Intn(len(other))]*rng.Float64()
		total2 := support + other[rng.Intn(len(other))]*rng.Float64()
		p, p2 := make([]float64, len(counts)), make([]float64, len(counts))
		if _, err := Learn(counts, p, total); err != nil {
			t.Fatal(err)
		}
		if _, err := Learn(counts, p2, total2); err != nil {
			t.Fatal(err)
		}
		bound := math.Sqrt2 * math.Sqrt(norm2) * math.Abs(1/total-1/total2)
		for i := range counts {
			for j := range i {
				if counts[i] == counts[j] {
					if p[i] != p[j] || p2[i] != p2[j] {
						t.Fatalf("counts %v: tied members %d and %d learn %v, %v at Σc %g and %v, %v at Σc′ %g",
							counts, i, j, p[i], p[j], total, p2[i], p2[j], total2)
					}
					continue
				}
				move := math.Abs((math.Log(p2[i]) - math.Log(p2[j])) - (math.Log(p[i]) - math.Log(p[j])))
				if move > bound+eps {
					t.Fatalf("counts %v, Σc %g → %g: log ratio of members %d and %d moves %g, bound %g",
						counts, total, total2, i, j, move, bound)
				}
				if bound > 0 {
					worst = max(worst, move/bound)
				}
			}
		}
	}
	t.Logf("the largest move is %.3f of its bound", worst)
}
