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
// through the block's evaluator (memoized, symmetric). Returns the number
// of pieces rewritten; tr, when non-nil, records each rewrite — the records
// (decoded values, copied tuple lists) are built only then.
func rsc(blockIdx int, b *index.Block, ev *distance.Evaluator, tr *Trace) int {
	repairs := 0
	var dist []float64 // rscWinner's n×n distances, reused across groups
	for _, g := range b.Groups {
		n := len(g.Pieces)
		if n <= 1 {
			continue // ideal state: one and only one γ (§5.1.2)
		}
		if cap(dist) < n*n {
			dist = make([]float64, n*n)
		}
		winner := rscWinner(g, ev, dist[:n*n])
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
