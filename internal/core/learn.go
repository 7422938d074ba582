package core

import (
	"slices"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/mln"
)

// learnBlockWeights learns the MLN weight of every piece in the block
// (§5.1.2): each distinct γ is a ground MLN rule whose prior weight is
// c(γ)/Σc (Eq. 4) and whose learned weight comes from diagonal-Newton
// optimization of the grouped likelihood — competing γs are the ones inside
// the same group. Returns the most Newton sweeps any of the block's groups
// made.
//
// The learned Newton weights live in log space (ln Pr(γ) = w − ln Z, Eq. 3).
// The paper uses the weight as "the probability of the attribute values
// w.r.t. this ground MLN rule being clean" (§3), and the fusion score
// multiplies weights across blocks (Eq. 5), so Piece.Weight is the in-group
// softmax probability mln.LearnWeights returns, floored at minPieceWeight;
// an uncontested γ (singleton group) gets 1.
//
// The learner's chunks of groups are crew items, four per participant so a
// worker that goes idle halfway through still finds some unclaimed. memo is
// the DeltaCleaner's (nil for batch drivers): the learner's memo, which
// takes a group of the block's last rebuild instead of learning it again,
// and the arrays the learner's inputs are built in.
func learnBlockWeights(b *index.Block, c crew, memo *blockMemo) (int, error) {
	in, lm := &learnInputs{}, (*mln.Memo)(nil)
	if memo != nil {
		in, lm = &memo.inputs, &memo.learn
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
	in.members, in.counts, in.groups = members, counts, groups
	probs, sweeps, err := mln.LearnWeights(groups, counts, mln.PriorWeights(counts), 4*c.size, func(n int, item func(int)) {
		c.each(n, func(_, i int, _ *distance.Evaluator) { item(i) })
	}, lm)
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
	if len(sweeps) == 0 {
		return 0, nil
	}
	return slices.Max(sweeps), nil
}

// learnInputs is what learnBlockWeights builds mln.LearnWeights' inputs in:
// members[i] = i, each candidate's count, and the groups as runs of members.
type learnInputs struct {
	members []int
	counts  []float64
	groups  [][]int
}

// minPieceWeight is the positive floor applied to learned piece weights so
// the fusion-score product (Eq. 5) keeps its ordering semantics.
const minPieceWeight = 1e-6
