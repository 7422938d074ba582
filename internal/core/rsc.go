package core

import (
	"math"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
)

// rsc runs reliability-score cleaning (§5.1.2) on every group of the block:
// within a group holding several pieces, the piece with the highest
// reliability score
//
//	r-score(γi) = min_{γ⋆ ∈ G−{γi}} dist(γi, γ⋆) × wᵢ
//	dist(γi, γ⋆) = n(γi)·d(γi, γ⋆) / Z,  Z = max over ordered pairs of n·d
//
// is declared clean and every other piece is rewritten to it, so each group
// ends with exactly one piece. Z is one positive constant per group, so it
// cancels from the argmax: the winner maximizes n(γi)·NNᵢ·wᵢ, where NNᵢ is
// the distance from γi to its nearest other piece. Z = 0 means every NN is 0,
// and every score is 0 with or without it. Ties break by higher weight, then
// higher count, then ascending key. Distances run over interned value IDs
// through the crew's evaluators. Returns the number of pieces rewritten; tr,
// when non-nil, records each rewrite — the records (decoded values, copied
// tuple lists) are built only then.
//
// A group's winner reads only that group's pieces, so each contested group
// is one crew item; the owner then records the rewrites in group order and
// collapses the block once (index.Block.Collapse), which ends its build
// layout.
func rsc(blockIdx int, b *index.Block, c crew, tr *Trace) int {
	winners := make([]*index.Piece, len(b.Groups))
	var contested []int
	widest := 0
	for i, g := range b.Groups {
		if len(g.Pieces) > 1 { // one and only one γ is the ideal state (§5.1.2)
			contested = append(contested, i)
			widest = max(widest, len(g.Pieces))
		} else {
			winners[i] = g.Pieces[0]
		}
	}
	nns := make([][]float64, c.size) // each participant's NN scratch
	c.each(len(contested), func(p, i int, ev *distance.Evaluator) {
		if nns[p] == nil {
			nns[p] = make([]float64, widest)
		}
		g := b.Groups[contested[i]]
		winners[contested[i]] = rscWinner(g, ev, nns[p][:len(g.Pieces)])
	})
	repairs := 0
	for _, gi := range contested {
		g, winner := b.Groups[gi], winners[gi]
		// Rewrite all losing pieces to the winner, recording each before the
		// collapse hands its tuples over.
		for _, p := range g.Pieces {
			if p == winner {
				continue
			}
			repairs++
			if tr != nil {
				tr.addRSC(RSCRepair{
					BlockIndex: blockIdx,
					RuleID:     b.Rule.ID,
					GroupKey:   g.Key(),
					Attrs:      b.Rule.Attrs(),
					Old:        p.Values(),
					New:        winner.Values(),
					Tuples:     append([]int{}, p.TupleIDs...),
				})
			}
		}
	}
	b.Collapse(winners)
	return repairs
}

// rscWinner computes reliability scores and returns the winning piece. nn is
// scratch for each piece's nearest-neighbour distance. One pass over the
// pairs measures each against the larger of its two running NNs: the
// evaluator is exact at its bound and only clips strictly past it, and a
// distance past both NNs lowers neither.
func rscWinner(g *index.Group, ev *distance.Evaluator, nn []float64) *index.Piece {
	for i := range nn {
		nn[i] = math.Inf(1)
	}
	for i, p := range g.Pieces {
		ids := p.ValueIDs()
		for j := i + 1; j < len(g.Pieces); j++ {
			d := ev.ValuesBounded(ids, g.Pieces[j].ValueIDs(), max(nn[i], nn[j]))
			nn[i], nn[j] = min(nn[i], d), min(nn[j], d)
		}
	}
	var winner *index.Piece
	bestScore := math.Inf(-1)
	for i, p := range g.Pieces {
		score := float64(p.Count()) * nn[i] * p.Weight
		if winner == nil || score > bestScore ||
			(score == bestScore && betterTie(p, winner)) {
			bestScore = score
			winner = p
		}
	}
	return winner
}

// betterTie breaks r-score ties: higher weight, then higher support count,
// then ascending key (full determinism).
func betterTie(p, cur *index.Piece) bool {
	if p.Weight != cur.Weight {
		return p.Weight > cur.Weight
	}
	if p.Count() != cur.Count() {
		return p.Count() > cur.Count()
	}
	return index.CompareKeys(p.Dict(), p.ValueIDs(), cur.ValueIDs()) < 0
}
