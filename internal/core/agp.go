package core

import (
	"math"
	"sort"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
)

// agpMemo carries nearest-target decisions across successive rebuilds of
// the same rule block (the DeltaCleaner's case: one mutation dirties a
// block whose group structure barely moves). A source's cached decision is
// reusable when three things hold: the cache is fresh (the immediately
// preceding rebuild wrote it — run stamps enforce this, so a rebuild the
// source sat out invalidates it), the source's γ⋆ is bit-identical (same
// piece KeyID ⇒ same value IDs ⇒ same distances), and its best target
// survived unchanged. A reusable decision then only has to beat the
// targets that were added or changed since — every unchanged target
// already lost to it, and the full scan's (distance, key) minimum is
// scan-order independent, so challenging the delta reproduces the full
// scan's choice exactly. Batch callers pass nil and take the plain scan.
type agpMemo struct {
	run   int
	fresh int // run whose normal flow last completed
	// targets maps a normal-group key to its γ⋆ piece KeyID — which fixes
	// the target's value IDs — as of `fresh`.
	targets map[string]uint32
	best    map[string]agpBest // abnormal-group key → decision
}

type agpBest struct {
	run    int
	srcKid uint32
	key    string // best target's group key
	d      float64
}

// agp runs Abnormal Group Processing (§5.1.1) on one block: groups whose
// related-tuple count is ≤ τ are abnormal; each abnormal group is merged
// into its nearest normal group, where the distance between two groups is
// the distance between their γ⋆ pieces (the piece related to the most
// tuples). If the block has no normal group, the largest group is promoted
// so merging remains well-defined.
//
// The O(abnormal×normal) scan runs entirely over interned value IDs through
// the block's distance evaluator: per-pair results are memoized
// symmetrically (γ⋆ values repeat across sources) and the per-pair DP is
// bounded by the running best, so hopeless targets abandon early. A non-nil
// memo further reduces repeat rebuilds to the changed targets only.
//
// Returns the number of abnormal groups detected, the total γ count inside
// them (#dag), and the number of promotions (0 or 1).
func agp(blockIdx int, b *index.Block, tau int, ev *distance.Evaluator, mergeCap float64, memo *agpMemo, tr *Trace) (abnormal, abnormalPieces, promotions int) {
	if memo != nil {
		memo.run++
	}
	if len(b.Groups) <= 1 {
		return 0, 0, 0
	}
	var abnormalGroups, normalGroups []*index.Group
	for _, g := range b.Groups {
		if g.TupleCount() <= tau {
			abnormalGroups = append(abnormalGroups, g)
		} else {
			normalGroups = append(normalGroups, g)
		}
	}
	if len(abnormalGroups) == 0 {
		return 0, 0, 0
	}
	if len(normalGroups) == 0 {
		// Promote the largest abnormal group (ties: lexicographic key) to
		// normal so every other group has a merge target, and record the
		// promotion — repair audits must see that this block was degenerate
		// and which group the others were measured against.
		sort.Slice(abnormalGroups, func(i, j int) bool {
			ti, tj := abnormalGroups[i].TupleCount(), abnormalGroups[j].TupleCount()
			if ti != tj {
				return ti > tj
			}
			return abnormalGroups[i].Key < abnormalGroups[j].Key
		})
		normalGroups = abnormalGroups[:1]
		abnormalGroups = abnormalGroups[1:]
		promotions = 1
		promo := AGPMerge{
			BlockIndex:   blockIdx,
			RuleID:       b.Rule.ID,
			SourceKey:    normalGroups[0].Key,
			SourcePieces: len(normalGroups[0].Pieces),
			Promoted:     true,
		}
		for _, p := range normalGroups[0].Pieces {
			promo.SourceTuples = append(promo.SourceTuples, p.TupleIDs...)
		}
		sort.Ints(promo.SourceTuples)
		tr.addAGP(promo)
		if len(abnormalGroups) == 0 {
			return 0, 0, promotions
		}
	}

	// Deterministic processing order.
	sort.Slice(abnormalGroups, func(i, j int) bool { return abnormalGroups[i].Key < abnormalGroups[j].Key })

	// Precompute γ⋆ IDs of normal groups once.
	type target struct {
		g   *index.Group
		ids []uint32
	}
	targets := make([]target, len(normalGroups))
	for i, g := range normalGroups {
		targets[i] = target{g: g, ids: g.Star().ValueIDs()}
	}

	// With a fresh memo, work out which targets moved since the previous
	// rebuild (added, removed, or different γ⋆) and index the rest.
	var changed map[string]bool
	var targetIdx map[string]int
	if memo != nil && promotions == 0 {
		curr := make(map[string]uint32, len(targets))
		targetIdx = make(map[string]int, len(targets))
		for i := range targets {
			curr[targets[i].g.Key] = targets[i].g.Star().KeyID()
			targetIdx[targets[i].g.Key] = i
		}
		if memo.fresh == memo.run-1 {
			changed = make(map[string]bool)
			for k, kid := range curr {
				if prev, ok := memo.targets[k]; !ok || prev != kid {
					changed[k] = true
				}
			}
			for k := range memo.targets {
				if _, ok := curr[k]; !ok {
					changed[k] = true // removed: any decision pointing here rescans
				}
			}
		}
		memo.targets = curr
		memo.fresh = memo.run
		if memo.best == nil {
			memo.best = make(map[string]agpBest)
		}
	}
	// Indices of moved targets, in scan order — sources with a reusable
	// decision measure only these.
	var changedIdx []int
	if changed != nil {
		for i := range targets {
			if changed[targets[i].g.Key] {
				changedIdx = append(changedIdx, i)
			}
		}
	}

	for _, src := range abnormalGroups {
		star := src.Star()
		if star == nil {
			continue
		}
		sids := star.ValueIDs()
		best := -1
		bestD := math.Inf(1) // distance of the best target
		cached := false
		if changed != nil {
			if e, ok := memo.best[src.Key]; ok && e.run == memo.run-1 && e.srcKid == star.KeyID() && !changed[e.key] {
				if i, ok := targetIdx[e.key]; ok {
					best, bestD = i, e.d
					cached = true
				}
			}
		}
		scan := len(targets)
		if cached {
			scan = len(changedIdx) // every other target lost to the cached decision last rebuild
		}
		for j := 0; j < scan; j++ {
			i := j
			if cached {
				i = changedIdx[j]
			}
			d := ev.ValuesBounded(sids, targets[i].ids, bestD)
			// Order independence: strictly nearer wins; an exact distance
			// tie falls to the explicit key comparison, never to the scan
			// order of targets. The bounded evaluator returns a distance
			// equal to its bound exactly (it only clips strictly past it),
			// so clipping cannot hide a tie.
			if d < bestD || (d == bestD && best >= 0 && targets[i].g.Key < targets[best].g.Key) {
				bestD = d
				best = i
			}
		}
		if memo != nil && promotions == 0 && best >= 0 {
			memo.best[src.Key] = agpBest{
				run: memo.run, srcKid: star.KeyID(),
				key: targets[best].g.Key, d: bestD,
			}
		}
		abnormal++
		abnormalPieces += len(src.Pieces)
		merge := AGPMerge{
			BlockIndex:   blockIdx,
			RuleID:       b.Rule.ID,
			SourceKey:    src.Key,
			SourcePieces: len(src.Pieces),
		}
		for _, p := range src.Pieces {
			merge.SourceTuples = append(merge.SourceTuples, p.TupleIDs...)
		}
		sort.Ints(merge.SourceTuples)
		if best >= 0 && bestD <= mergeCap*float64(maxRuneLen(ev, sids, targets[best].ids)) {
			merge.TargetKey = targets[best].g.Key
			b.MergeGroups(src, targets[best].g)
		}
		tr.addAGP(merge)
	}
	return abnormal, abnormalPieces, promotions
}

// maxRuneLen returns the larger total rune length of the two value-ID
// slices — the denominator for the relative merge cap. Rune lengths come
// from the evaluator's per-ID cache.
func maxRuneLen(ev *distance.Evaluator, a, b []uint32) int {
	la, lb := 0, 0
	for _, id := range a {
		la += ev.RuneLen(id)
	}
	for _, id := range b {
		lb += ev.RuneLen(id)
	}
	if lb > la {
		return lb
	}
	return la
}
