package mln

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPriorWeights(t *testing.T) {
	w := PriorWeights([]float64{1, 2, 5})
	if math.Abs(w[0]-0.125) > 1e-12 || math.Abs(w[2]-0.625) > 1e-12 {
		t.Errorf("priors = %v", w)
	}
	if got := PriorWeights([]float64{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Errorf("zero-count priors = %v", got)
	}
}

func TestLearnWeightsMonotone(t *testing.T) {
	// Within a group, higher support must learn a higher weight.
	counts := []float64{8, 1}
	w, _, err := LearnWeights([][]int{{0, 1}}, counts, PriorWeights(counts), 1, nil, nil)
	if err != nil {
		t.Fatalf("LearnWeights: %v", err)
	}
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
		counts := []float64{ca, cb}
		w, _, err := LearnWeights([][]int{{0, 1}}, counts, PriorWeights(counts), 1, nil, nil)
		if err != nil {
			return false
		}
		switch {
		case ca > cb:
			return w[0] > w[1]
		case ca < cb:
			return w[0] < w[1]
		default:
			return math.Abs(w[0]-w[1]) < 1e-6
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLearnWeightsValidation(t *testing.T) {
	if _, _, err := LearnWeights([][]int{{0}}, []float64{1}, []float64{1, 2}, 1, nil, nil); err == nil {
		t.Error("init length mismatch should fail")
	}
	if _, _, err := LearnWeights([][]int{{0, 0}}, []float64{1, 1}, []float64{0, 0}, 1, nil, nil); err == nil {
		t.Error("duplicate group membership should fail")
	}
	if _, _, err := LearnWeights([][]int{{5}}, []float64{1}, []float64{0}, 1, nil, nil); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, _, err := LearnWeights([][]int{{0}}, []float64{-1}, []float64{0}, 1, nil, nil); err == nil {
		t.Error("negative count should fail")
	}
}

// TestLearnWeightsSingletonGroupIsCertain: a singleton competes with
// nothing, whatever its initial weight, and so does a candidate in no group.
func TestLearnWeightsSingletonGroupIsCertain(t *testing.T) {
	counts := []float64{7, 3}
	init := []float64{0.42, 0.3}
	w, sweeps, err := LearnWeights([][]int{{0}}, counts, init, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 1 || w[1] != 1 || sweeps[0] != 0 {
		t.Errorf("singleton probability %v, uncovered %v, %d sweeps; want 1, 1, 0", w[0], w[1], sweeps[0])
	}
}

func TestLearnWeightsConverges(t *testing.T) {
	counts := []float64{10, 5, 1}
	_, iters, err := LearnWeights([][]int{{0, 1, 2}}, counts, PriorWeights(counts), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iters[0] >= maxIters {
		t.Errorf("learner hit the %d-sweep bound without converging", maxIters)
	}
}
