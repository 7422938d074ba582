package core

import (
	"math"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/mln"
)

// learnBlockWeights learns the MLN weight of every piece in the block
// (§5.1.2): each distinct γ is a ground MLN rule whose prior weight is
// c(γ)/Σc (Eq. 4) and whose learned weight comes from diagonal-Newton
// optimization of the grouped likelihood — competing γs are the ones inside
// the same group. Weights are written into Piece.Weight. Returns the most
// Newton sweeps any of the block's groups made.
//
// The learner's chunks of groups are crew items, four per participant so a
// worker that goes idle halfway through still finds some unclaimed; each
// group sweeps until its own step is under tolerance, so every chunk count
// learns the same bits and a group's weights are the same whatever else its
// block holds (mln.LearnWeights).
func learnBlockWeights(b *index.Block, c crew) (int, error) {
	n := 0
	for _, g := range b.Groups {
		n += len(g.Pieces)
	}
	if n == 0 {
		return 0, nil
	}
	// Candidates are numbered group by group, so each group's competing γs
	// are one run of consecutive indices: a sub-slice of members[i] = i.
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	counts := make([]float64, 0, n)
	groups := make([][]int, 0, len(b.Groups))
	for _, g := range b.Groups {
		first := len(counts)
		for _, p := range g.Pieces {
			counts = append(counts, float64(p.Count()))
		}
		groups = append(groups, members[first:len(counts)])
	}
	priors := mln.PriorWeights(counts)
	weights, iters, err := mln.LearnWeights(groups, counts, priors, 4*c.size, func(n int, item func(int)) {
		c.each(n, func(_, i int, _ *distance.Evaluator) { item(i) })
	})
	if err != nil {
		return 0, err
	}
	// The learned Newton weights live in log space (ln Pr(γ) = w − ln Z,
	// Eq. 3). The paper uses the weight as "the probability of the attribute
	// values w.r.t. this ground MLN rule being clean" (§3), and the fusion
	// score multiplies weights across blocks (Eq. 5), so the weight stored
	// on each piece is the in-group softmax probability: exp-normalized over
	// the competing γs of its group. An uncontested γ (singleton group) is
	// certainly clean under its rule and gets weight 1.
	for _, g := range b.Groups {
		ws := weights[:len(g.Pieces)]
		weights = weights[len(g.Pieces):]
		if len(ws) == 1 {
			g.Pieces[0].Weight = 1
			continue
		}
		maxW := math.Inf(-1)
		for _, w := range ws {
			if w > maxW {
				maxW = w
			}
		}
		var z float64
		for k, w := range ws {
			ws[k] = math.Exp(w - maxW)
			z += ws[k]
		}
		for k, p := range g.Pieces {
			p.Weight = ws[k] / z
			if p.Weight < minPieceWeight {
				p.Weight = minPieceWeight
			}
		}
	}
	return iters, nil
}

// minPieceWeight is the positive floor applied to learned piece weights so
// the fusion-score product (Eq. 5) keeps its ordering semantics.
const minPieceWeight = 1e-6
