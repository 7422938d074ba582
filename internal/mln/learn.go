// Package mln is MLNClean's Markov-logic weight learner (§5.1.2, Eq. 3–4):
// every distinct piece of data γ of the two-layer index is a ground MLN rule
// (Table 3), the γs of one group compete, and damped diagonal Newton — the
// optimizer Tuffy uses — assigns each γ the weight the reliability score
// (Def. 2) and the fusion score (Eq. 5) consume. The index is the grounding
// and the pipeline runs no inference over it, so learning is all there is.
package mln

import (
	"fmt"
	"math"
)

// The diagonal-Newton learner's settings. They are constants because no
// caller ever needed a second value; the parity goldens pin their effect.
const (
	// maxIters bounds the Newton sweeps.
	maxIters = 100
	// tolerance stops the loop once the max absolute weight change of a
	// sweep falls below it.
	tolerance = 1e-6
	// damping is added to the Hessian diagonal for numerical stability.
	// Larger damping ⇒ smaller, safer steps.
	damping = 1e-3
	// priorSigma is the std-dev of the Gaussian prior centred on the initial
	// weights. The prior both regularizes and pins the per-group shift
	// invariance of the softmax likelihood.
	priorSigma = 2.0
	invSigma2  = 1 / (priorSigma * priorSigma)
	// maxStep clips each per-weight Newton step.
	maxStep = 2.0
)

// LearnWeights fits ground-clause weights by maximizing the grouped softmax
// log-likelihood with a damped diagonal-Newton update — the optimizer family
// Tuffy uses for MLN weight learning.
//
// The model: candidates are partitioned into groups (in MLNClean, one group
// per MLN-index group, candidates = its distinct γs). Within group g the
// probability of candidate i is softmax over the group's weights, matching
// Eq. 2 restricted to the competing ground clauses (ln Pr(γ) = w − ln Z,
// Eq. 3). counts[i] is the observed support c(γᵢ). The objective is
//
//	L(w) = Σ_g Σ_{i∈g} counts[i]·log softmax_g(w)_i − Σ_i (w_i−w⁰_i)²/(2σ²)
//
// and the update is wᵢ += clip(g_i / (−H_ii + damping)) with
// g_i = counts[i] − C_g·p_i − (w_i−w⁰_i)/σ² and H_ii = −C_g·p_i(1−p_i) − 1/σ².
//
// init supplies the starting (and prior-centre) weights; pass the Eq. 4
// priors w⁰ = c(γ)/Σc. groups must partition 0..len(counts)-1; indices may
// appear in at most one group. Returns the learned weights and the number
// of sweeps performed (maxIters when the tolerance was never reached).
func LearnWeights(groups [][]int, counts []float64, init []float64) (weights []float64, iterations int, err error) {
	n := len(counts)
	if len(init) != n {
		return nil, 0, fmt.Errorf("mln: init has %d weights for %d candidates", len(init), n)
	}
	seen := make([]bool, n)
	for _, g := range groups {
		for _, i := range g {
			if i < 0 || i >= n {
				return nil, 0, fmt.Errorf("mln: group index %d out of range [0,%d)", i, n)
			}
			if seen[i] {
				return nil, 0, fmt.Errorf("mln: candidate %d appears in multiple groups", i)
			}
			seen[i] = true
		}
	}
	for i, c := range counts {
		if c < 0 {
			return nil, 0, fmt.Errorf("mln: negative count %g for candidate %d", c, i)
		}
	}

	w := make([]float64, n)
	copy(w, init)

	maxGroup := 0
	for _, g := range groups {
		if len(g) > maxGroup {
			maxGroup = len(g)
		}
	}
	probs := make([]float64, maxGroup)

	for iterations < maxIters {
		iterations++
		maxDelta := 0.0
		for _, g := range groups {
			if len(g) < 2 {
				// A singleton group's softmax is degenerate (p=1); only the
				// prior acts, so the weight stays at its prior centre.
				continue
			}
			total := 0.0
			for _, i := range g {
				total += counts[i]
			}
			if total == 0 {
				continue
			}
			// Coordinate-descent Newton: refresh the group's softmax before
			// each single-weight update. Updating all weights of a group
			// from one stale distribution makes opposing steps compound
			// (the softmax is shift-invariant) and the sweep oscillates.
			for k, i := range g {
				softmaxInto(probs[:len(g)], w, g)
				p := probs[k]
				grad := counts[i] - total*p - (w[i]-init[i])*invSigma2
				hess := total*p*(1-p) + invSigma2 + damping
				step := grad / hess
				if step > maxStep {
					step = maxStep
				} else if step < -maxStep {
					step = -maxStep
				}
				w[i] += step
				if d := math.Abs(step); d > maxDelta {
					maxDelta = d
				}
			}
		}
		if maxDelta < tolerance {
			break
		}
	}
	return w, iterations, nil
}

// softmaxInto writes softmax(w[idx]) into dst (len(dst) == len(idx)),
// allocating nothing — the Newton sweep calls it once per weight update.
func softmaxInto(dst []float64, w []float64, idx []int) {
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

// PriorWeights computes the Eq. 4 priors: w⁰ᵢ = c(γᵢ) / Σⱼ c(γⱼ) over all
// candidates in a block.
func PriorWeights(counts []float64) []float64 {
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
