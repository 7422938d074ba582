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
// Newton steps on t any of the block's groups took (mln.LearnWeights).
//
// The learned weights live in log space (ln Pr(γ) = w − ln Z, Eq. 3). The
// paper uses the weight as "the probability of the attribute values w.r.t.
// this ground MLN rule being clean" (§3), and the fusion score multiplies
// weights across blocks (Eq. 5), so Piece.Weight is the in-group softmax
// probability mln.LearnWeights returns, floored at minPieceWeight; an
// uncontested γ (singleton group) gets 1.
//
// in holds the arrays the learner's inputs are built in: the
// DeltaCleaner's, kept across a block's re-cleans, or nil for batch drivers.
func learnBlockWeights(b *index.Block, in *learnInputs) (int, error) {
	if in == nil {
		in = &learnInputs{}
	}
	n := 0
	for _, g := range b.Groups {
		n += len(g.Pieces)
	}
	// Candidates are numbered group by group, so each group's competing γs
	// are one run of consecutive indices: a sub-slice of members[i] = i.
	members := slices.Grow(in.members, max(n-len(in.members), 0))
	for i := len(members); i < n; i++ {
		members = append(members, i)
	}
	counts := slices.Grow(in.counts[:0], n)
	groups := slices.Grow(in.groups[:0], len(b.Groups))
	for _, g := range b.Groups {
		// A singleton competes with nothing: left out of every group, the
		// learner gives it 1.
		if len(g.Pieces) > 1 {
			groups = append(groups, members[len(counts):len(counts)+len(g.Pieces)])
		}
		for _, p := range g.Pieces {
			counts = append(counts, float64(p.Count()))
		}
	}
	probs := slices.Grow(in.probs[:0], n)[:n]
	in.members, in.counts, in.groups, in.probs = members, counts, groups, probs
	steps, err := mln.LearnWeights(groups, counts, probs)
	if err != nil {
		return 0, err
	}
	i := 0
	for _, g := range b.Groups {
		for _, p := range g.Pieces {
			p.Weight = max(probs[i], minPieceWeight)
			i++
		}
	}
	return steps, nil
}

// learnInputs is what learnBlockWeights builds mln.LearnWeights' inputs and
// output in: members[i] = i, each candidate's count, the groups as runs of
// members, and each candidate's probability.
type learnInputs struct {
	members       []int
	counts, probs []float64
	groups        [][]int
}

// minPieceWeight is the positive floor applied to learned piece weights so
// the fusion-score product (Eq. 5) keeps its ordering semantics.
const minPieceWeight = 1e-6
