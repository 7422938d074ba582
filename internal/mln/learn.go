// Package mln is MLNClean's Markov-logic weight learner (§5.1.2, Eq. 3–4):
// every distinct piece of data γ of the two-layer index is a ground MLN rule
// (Table 3), the γs of one group compete, and each γ gets the weight that
// maximizes its group's softmax likelihood under a Gaussian prior centred on
// the Eq. 4 weights — the objective Tuffy's learner optimizes, solved here
// exactly by a one-dimensional root-find per group. The reliability score
// (Def. 2) and the fusion score (Eq. 5) consume the weights. The index is the
// grounding and the pipeline runs no inference over it, so learning is all
// there is.
package mln

import (
	"fmt"
	"math"
)

// priorSigma is the std-dev of the Gaussian prior centred on the Eq. 4
// weights. The prior both regularizes and pins the per-group shift
// invariance of the softmax likelihood. It is a constant because no caller
// ever needed a second value; the parity goldens pin its effect.
const (
	priorSigma = 2.0
	sigma2     = priorSigma * priorSigma
)

// Learn learns the ground-clause weights of one group and writes each
// member's in-group probability under them into probs, the probability that
// the γ is clean under its rule (§3). It returns the Newton steps on t
// (below) the group took.
//
// The model: the members of a group compete (in MLNClean, one group per
// MLN-index group, members = its distinct γs). The probability of member i
// is softmax over the group's weights, matching Eq. 2 restricted to the
// competing ground clauses (ln Pr(γ) = w − ln Z, Eq. 3). counts[i] is the
// observed support cᵢ = c(γᵢ), and the prior centre is the Eq. 4 weight
// w⁰ᵢ = cᵢ / total, where total is the block's Σc over every γ of the
// block: it must be finite and at least the group's support, and a group
// learns the same bits whichever other groups of its block are learned.
// The group maximizes
//
//	L(w) = Σᵢ cᵢ·log softmax(w)ᵢ − Σᵢ (wᵢ−w⁰ᵢ)²/(2σ²).
//
// L is strictly concave, and with C = Σᵢ cᵢ and Z = Σⱼ e^{wⱼ} its maximum is
// where wᵢ + σ²·C·e^{wᵢ}/Z = bᵢ, bᵢ = w⁰ᵢ + σ²cᵢ. With t = ln(σ²C/Z) that is
// wᵢ = bᵢ − W(e^{bᵢ+t}), W the Lambert function, and the group's
// probabilities sum to 1 exactly when Σᵢ W(e^{bᵢ+t}) = σ²C. Then
// pᵢ = W(e^{bᵢ+t}) / σ²C. So each group is one root-find in t, by Newton's
// method; the sum is convex and increasing in t, and the start
// t₀ = ln(σ²·c_max) − w⁰_max lies at or above the root, so every step comes
// down from above. Members with equal counts get equal bits.
//
// A singleton gets 1, and a group without support, whose weights stay at
// the prior centre, the uniform 1/|g|; neither takes a step. len(probs)
// must be len(counts); after an error its contents are unspecified.
func Learn(counts, probs []float64, total float64) (steps int, err error) {
	if len(probs) != len(counts) {
		return 0, fmt.Errorf("mln: %d probabilities for %d members", len(probs), len(counts))
	}
	var support, top float64
	for i, c := range counts {
		if !(c >= 0) || math.IsInf(c, 1) {
			return 0, fmt.Errorf("mln: count %g for member %d is not a finite non-negative number", c, i)
		}
		support += c
		top = max(top, c)
	}
	if !(total >= support) || math.IsInf(total, 1) {
		return 0, fmt.Errorf("mln: block total %g is not a finite number of at least the group's %g", total, support)
	}
	if len(counts) < 2 || support == 0 {
		// A singleton's softmax is degenerate, and a group without support
		// has only the prior acting on it: every w⁰ is 0.
		for i := range probs {
			probs[i] = 1 / float64(len(probs))
		}
		return 0, nil
	}
	target := sigma2 * support
	t := math.Log(sigma2*top) - top/total
	// probs holds each member's ln W(e^{bᵢ+t}) at the latest t: above the
	// root for any smaller t, so the start of the member's next solve.
	for i, c := range counts {
		x := c/total + sigma2*c + t
		probs[i] = x
		if x > 1 {
			probs[i] = math.Log(x)
		}
	}
	for {
		// F(t) = Σ W(e^{bᵢ+t}) − σ²C and F'(t) = Σ W/(1+W).
		steps++
		var sum, slope float64
		for i, c := range counts {
			u, w := lnW(c/total+sigma2*c+t, probs[i])
			probs[i] = u
			sum += w
			slope += w / (1 + w)
		}
		next := t - (sum-target)/slope
		if !(next < t) {
			break
		}
		t = next
	}
	// pᵢ = Wᵢ / ΣW: σ²C at the root, and 1 in the sum whatever the rounding.
	var sum float64
	for i := range probs {
		probs[i] = math.Exp(probs[i])
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return steps, nil
}

// lnW returns u = ln W(eˣ), the root of eᵘ + u − x, and eᵘ, by Newton's
// method from u, which must lie at or above the root: the function is convex
// and increasing, so every step comes down from above. It stops on a step
// under 1e-9, which leaves u within 2e-18 of the root, and a step that does
// not come down. Working on ln W keeps W's relative precision where it is
// tiny.
func lnW(x, u float64) (float64, float64) {
	for {
		e := math.Exp(u)
		step := (e + u - x) / (e + 1)
		if step <= 1e-9 {
			if step <= 0 {
				return u, e
			}
			return u - step, e * (1 - step)
		}
		u -= step
	}
}
