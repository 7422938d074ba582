package core

import (
	"math"
	"sort"

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
// ends with exactly one piece. Ties break by higher weight, then higher
// count, then ascending key. Pairwise distances run over interned value IDs
// through the crew's evaluators (memoized, symmetric). Returns the number
// of pieces rewritten; tr, when non-nil, records each rewrite — the records
// (decoded values, copied tuple lists) are built only then.
//
// A group's winner reads only that group's pieces, so each contested group
// is one crew item; the owner then rewrites in group order.
func rsc(blockIdx int, b *index.Block, c crew, tr *Trace) int {
	var contested []*index.Group
	widest := 0
	for _, g := range b.Groups {
		if len(g.Pieces) > 1 { // one and only one γ is the ideal state (§5.1.2)
			contested = append(contested, g)
			widest = max(widest, len(g.Pieces))
		}
	}
	winners := make([]*index.Piece, len(contested))
	dists := make([][]float64, c.size) // each participant's n×n scratch
	c.each(len(contested), func(p, i int, ev *distance.Evaluator) {
		if dists[p] == nil {
			dists[p] = make([]float64, widest*widest)
		}
		n := len(contested[i].Pieces)
		winners[i] = rscWinner(contested[i], ev, dists[p][:n*n])
	})
	repairs := 0
	for i, g := range contested {
		winner := winners[i]
		// Rewrite all losing pieces to the winner.
		for _, p := range g.Pieces {
			if p == winner {
				continue
			}
			repairs++
			if tr != nil {
				tr.addRSC(RSCRepair{
					BlockIndex: blockIdx,
					RuleID:     b.Rule.ID,
					GroupKey:   g.Key,
					Attrs:      b.Rule.Attrs(),
					Old:        p.Values(),
					New:        winner.Values(),
					Tuples:     append([]int{}, p.TupleIDs...),
				})
			}
			winner.TupleIDs = append(winner.TupleIDs, p.TupleIDs...)
		}
		sort.Ints(winner.TupleIDs)
		g.Pieces = []*index.Piece{winner}
	}
	return repairs
}

// rscWinner computes reliability scores and returns the winning piece. d is
// scratch for the group's pairwise distances, row-major n×n.
func rscWinner(g *index.Group, ev *distance.Evaluator, d []float64) *index.Piece {
	n := len(g.Pieces)
	// Pairwise raw distances over value IDs; the diagonal is never read.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := ev.Values(g.Pieces[i].ValueIDs(), g.Pieces[j].ValueIDs())
			d[i*n+j] = dist
			d[j*n+i] = dist
		}
	}
	// Z normalizes n(γ)·d into [0,1] across the group's ordered pairs.
	var z float64
	for i, p := range g.Pieces {
		ni := float64(p.Count())
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if v := ni * d[i*n+j]; v > z {
				z = v
			}
		}
	}
	var winner *index.Piece
	bestScore := math.Inf(-1)
	for i, p := range g.Pieces {
		minDist := math.Inf(1)
		ni := float64(p.Count())
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dist := 0.0
			if z > 0 {
				dist = ni * d[i*n+j] / z
			}
			if dist < minDist {
				minDist = dist
			}
		}
		score := minDist * p.Weight
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
	return p.Key() < cur.Key()
}
