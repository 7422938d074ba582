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
// Newton steps on t any of the block's groups took (mln.LearnGroups).
//
// The learned weights live in log space (ln Pr(γ) = w − ln Z, Eq. 3). The
// paper uses the weight as "the probability of the attribute values w.r.t.
// this ground MLN rule being clean" (§3), and the fusion score multiplies
// weights across blocks (Eq. 5), so Piece.Weight is the in-group softmax
// probability mln.LearnGroups returns, floored at minPieceWeight; an
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
// in.steps[k] is then the Newton steps of the k-th group of more than one
// piece.
func learnGroups(gs []*index.Group, in *learnInputs, total int) (int, error) {
	if in == nil {
		in = &learnInputs{}
	}
	n := 0
	for _, g := range gs {
		n += len(g.Pieces)
	}
	in.reset(n, len(gs))
	for _, g := range gs {
		for _, p := range g.Pieces {
			in.counts = append(in.counts, float64(p.Count()))
		}
		in.group(len(g.Pieces))
	}
	most, err := in.solve(total)
	if err != nil {
		return 0, err
	}
	i := 0
	for _, g := range gs {
		for _, p := range g.Pieces {
			p.Weight = max(in.probs[i], minPieceWeight)
			i++
		}
	}
	return most, nil
}

// learnInputs is what learnGroups builds mln.LearnGroups' inputs and
// output in: members[i] = i, each candidate's count, the groups as runs of
// members, each candidate's probability and each group's Newton steps.
type learnInputs struct {
	members       []int
	counts, probs []float64
	groups        [][]int
	steps         []int
}

// reset empties the inputs for n candidates in at most g groups.
func (in *learnInputs) reset(n, g int) {
	in.members = slices.Grow(in.members, max(n-len(in.members), 0))
	for i := len(in.members); i < n; i++ {
		in.members = append(in.members, i)
	}
	in.counts, in.groups = slices.Grow(in.counts[:0], n), slices.Grow(in.groups[:0], g)
}

// group makes the last k counts one group. Candidates are numbered group by
// group, so each group's competing γs are one run of consecutive indices:
// a sub-slice of members[i] = i. A singleton competes with nothing: left
// out of every group, the learner gives it 1.
func (in *learnInputs) group(k int) {
	if n := len(in.counts); k > 1 {
		in.groups = append(in.groups, in.members[n-k:n])
	}
}

// solve learns the groups with Σc total: probs[i] is then candidate i's
// probability and steps[k] the k-th group's Newton steps.
func (in *learnInputs) solve(total int) (int, error) {
	n := len(in.counts)
	in.probs = slices.Grow(in.probs[:0], n)[:n]
	in.steps = slices.Grow(in.steps[:0], len(in.groups))[:len(in.groups)]
	return mln.LearnGroups(in.groups, in.counts, in.probs, float64(total), in.steps)
}

// minPieceWeight is the positive floor applied to learned piece weights so
// the fusion-score product (Eq. 5) keeps its ordering semantics.
const minPieceWeight = 1e-6
