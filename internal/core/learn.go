package core

import (
	"slices"

	"mlnclean/internal/index"
	"mlnclean/internal/mln"
)

// learnBlockWeights learns the MLN weight of every piece in the block
// (§5.1.2): each distinct γ is a ground MLN rule whose prior weight is
// c(γ)/Σc (Eq. 4) and whose learned weight maximizes the grouped likelihood
// — competing γs are the ones inside the same group. Returns the most
// Newton steps on t any of the block's groups took (mln.Learn).
//
// The learned weights live in log space (ln Pr(γ) = w − ln Z, Eq. 3). The
// paper uses the weight as "the probability of the attribute values w.r.t.
// this ground MLN rule being clean" (§3), and the fusion score multiplies
// weights across blocks (Eq. 5), so Piece.Weight is the in-group softmax
// probability mln.Learn returns, floored at minPieceWeight; an
// uncontested γ (singleton group) gets 1.
//
// in holds the arrays the learner's inputs are built in: the
// DeltaCleaner's, kept across a block's re-cleans, or nil for batch drivers.
func learnBlockWeights(b *index.Block, in *learnInputs) (int, error) {
	total := 0
	for _, g := range b.Groups {
		total += g.TupleCount()
	}
	return learnGroups(b.Groups, in, total)
}

// learnGroups is learnBlockWeights over some of a block's groups, whose
// Σc is total: each group learns the bits it learns in the whole block.
// in.steps[k] is then the k-th group's Newton steps (0 for a singleton).
func learnGroups(gs []*index.Group, in *learnInputs, total int) (int, error) {
	if in == nil {
		in = &learnInputs{}
	}
	widest := 0
	for _, g := range gs {
		widest = max(widest, len(g.Pieces))
	}
	in.counts, in.probs = slices.Grow(in.counts[:0], widest), slices.Grow(in.probs[:0], widest)
	in.steps = slices.Grow(in.steps[:0], len(gs))
	most := 0
	for _, g := range gs {
		in.counts = in.counts[:0]
		for _, p := range g.Pieces {
			in.counts = append(in.counts, float64(p.Count()))
		}
		steps, err := in.learn(total)
		if err != nil {
			return 0, err
		}
		for j, p := range g.Pieces {
			p.Weight = max(in.probs[j], minPieceWeight)
		}
		in.steps = append(in.steps, steps)
		most = max(most, steps)
	}
	return most, nil
}

// learnInputs is what the groups of a block are learned in, one at a time:
// the group's counts and its members' probabilities, and each group's
// Newton steps.
type learnInputs struct {
	counts, probs []float64
	steps         []int
}

// learn learns the group whose counts in.counts holds, with Σc total:
// in.probs[j] is then member j's probability. Returns its Newton steps.
func (in *learnInputs) learn(total int) (int, error) {
	n := len(in.counts)
	in.probs = slices.Grow(in.probs[:0], n)[:n]
	return mln.Learn(in.counts, in.probs, float64(total))
}

// minPieceWeight is the positive floor applied to learned piece weights so
// the fusion-score product (Eq. 5) keeps its ordering semantics.
const minPieceWeight = 1e-6
