package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
)

// agpMemo carries nearest-target decisions across successive rebuilds of
// the same rule block (the DeltaCleaner's case: one mutation dirties a
// block whose group structure barely moves). It holds what the immediately
// preceding rebuild decided and nothing older: every rebuild empties it and
// only one that goes on to search fills it again, so a rebuild a source sat
// out leaves no decision for it and a session fed ever-new typos does not
// grow it. A source's cached decision is reusable when its γ⋆ is
// bit-identical (same piece KeyID ⇒ same value IDs ⇒ same distances) and its
// best target survived unchanged. It then only has to beat the targets that
// were added or changed since — every unchanged target already lost to it,
// and the (distance, reason) minimum does not depend on the order targets are
// measured in, so challenging the delta reproduces the full search's choice
// exactly. Groups are named by their KeyID, which one dictionary keeps
// across rebuilds. Batch callers pass nil and search every source.
//
// It stays because it pays: BenchmarkDeltaApply runs 8.5–8.8 ms/op with it
// and 13.3–13.5 without, with the same refused and repair counts (three
// alternating pairs of 300 ops, 2-core Xeon).
type agpMemo struct {
	// targets maps a normal group's KeyID to its γ⋆ piece KeyID, which
	// fixes the target's value IDs.
	targets map[uint32]uint32
	best    map[uint32]agpBest // abnormal group's KeyID → decision
}

type agpBest struct {
	srcKid uint32
	target uint32 // best target's group KeyID
	d      float64
}

// agpTarget is one normal group and its γ⋆, taken once per block.
type agpTarget struct {
	g   *index.Group
	kid uint32   // γ⋆'s piece KeyID
	ids []uint32 // γ⋆'s value IDs
}

// agpSearch finds the nearest target of one source at a time without
// measuring every target. A source and a target that share the value ID at
// m of the source's k positions differ in k−m attributes, and each differing
// attribute costs at least the evaluator's MinDistinct, so the targets are
// measured class by class — m = k−1 shared positions, then k−2, … down to 0,
// the class of every target the source shares nothing with — and the search
// stops before a class whose lower bound (k−m)·δ the running best is already
// strictly under: nothing left can win, or even tie into the key comparison.
// Where the bound says nothing (δ = 0: cosine or a custom metric; targets of
// ragged arity; a best no better than k·δ) every class is entered, which is
// the plain scan over all targets.
//
// The classes come from per-position postings over the targets' value IDs,
// built once before any source searches, and only when one will: a rebuild
// whose sources all reuse a memoized decision never pays for them. The
// targets and postings are read-only from then on, so any number of
// searchers share them, each with its own evaluator and scratch.
type agpSearch struct {
	targets []agpTarget
	arity   int          // the targets' common γ⋆ arity; −1 when they differ
	post    []agpPosting // arity runs of len(targets), each sorted by (id, target)
}

type agpPosting struct {
	id     uint32
	target int32
}

func (s *agpSearch) build() {
	n := len(s.targets)
	s.arity = len(s.targets[0].ids)
	for i := range s.targets {
		if len(s.targets[i].ids) != s.arity {
			s.arity = -1
			return
		}
	}
	s.post = make([]agpPosting, s.arity*n)
	for p := 0; p < s.arity; p++ {
		run := s.post[p*n : (p+1)*n]
		for i := range s.targets {
			run[i] = agpPosting{id: s.targets[i].ids[p], target: int32(i)}
		}
		slices.SortFunc(run, func(a, b agpPosting) int {
			return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.target, b.target))
		})
	}
}

// agpSearcher is one participant's view of a shared agpSearch: its own
// evaluator, scratch and cost counters.
type agpSearcher struct {
	*agpSearch
	ev *distance.Evaluator
	// shared[t] counts the positions at which target t holds the current
	// source's value; touched lists the targets with a non-zero count.
	shared  []int32
	touched []int32

	pairs     int // γ⋆ pairs measured
	fullScans int // sources that went on to the targets sharing nothing
}

// challenge measures target i against the running best and returns the
// better of the two. Strictly nearer wins; an exact distance tie falls to
// the smaller reason under CompareKeys, never to the order targets are
// measured in.
// The bounded evaluator returns a distance equal to its bound exactly (it
// only clips strictly past it), so clipping cannot hide a tie.
func (s *agpSearcher) challenge(sids []uint32, i, best int, bestD float64) (int, float64) {
	s.pairs++
	d := s.ev.ValuesBounded(sids, s.targets[i].ids, bestD)
	if d < bestD || (d == bestD && best >= 0 && compareGroups(s.targets[i].g, s.targets[best].g) < 0) {
		return i, d
	}
	return best, bestD
}

// nearest returns the (distance, reason) minimum over all targets: the
// source's nearest target, ties to the smaller group reason, and its
// distance.
func (s *agpSearcher) nearest(sids []uint32) (best int, bestD float64) {
	best, bestD = -1, math.Inf(1)
	k, n := len(sids), len(s.targets)
	// δ: what any one differing attribute of this source costs at least.
	delta := 0.0
	if k > 0 {
		delta = s.ev.MinDistinct(sids[0])
		for _, id := range sids[1:] {
			delta = min(delta, s.ev.MinDistinct(id))
		}
	}
	if k != s.arity {
		delta = 0
	}
	if delta > 0 {
		for p, id := range sids {
			run := s.post[p*n : (p+1)*n]
			at, _ := slices.BinarySearchFunc(run, id, func(e agpPosting, id uint32) int { return cmp.Compare(e.id, id) })
			for ; at < n && run[at].id == id; at++ {
				t := run[at].target
				if s.shared[t] == 0 {
					s.touched = append(s.touched, t)
				}
				s.shared[t]++
			}
		}
	}
	for m := k; m >= 0 && !(bestD < float64(k-m)*delta); m-- {
		if m > 0 {
			for _, t := range s.touched {
				if s.shared[t] == int32(m) {
					best, bestD = s.challenge(sids, int(t), best, bestD)
				}
			}
			continue
		}
		s.fullScans++
		for i := 0; i < n; i++ {
			if len(s.touched) == 0 || s.shared[i] == 0 {
				best, bestD = s.challenge(sids, i, best, bestD)
			}
		}
	}
	for _, t := range s.touched {
		s.shared[t] = 0
	}
	s.touched = s.touched[:0]
	return best, bestD
}

// agp runs Abnormal Group Processing (§5.1.1) on one block: groups whose
// related-tuple count is ≤ τ are abnormal; each abnormal group is merged
// into its nearest normal group, where the distance between two groups is
// the distance between their γ⋆ pieces (the piece related to the most
// tuples). If the block has no normal group, the largest group is promoted
// so merging remains well-defined.
//
// The nearest-group search runs entirely over interned value IDs through
// the crew's distance evaluators: agpSearch measures only the targets that
// can still win, per-pair results are memoized symmetrically (γ⋆ values
// repeat across sources) and the per-pair DP is bounded by the running
// best, so hopeless targets abandon early. A non-nil memo further reduces
// repeat rebuilds to the changed targets only.
//
// Each source's search is one crew item. A search reads only the targets'
// γ⋆ value IDs, taken before the first merge, and their reasons, while a
// merge only moves a source's pieces into a normal group; so every search
// sees what it would have seen in the serial loop, and the owner then
// merges, memoizes and traces in source order.
//
// Returns the number of abnormal groups detected, the total γ count inside
// them (#dag), the number of promotions (0 or 1), and what the search cost:
// γ⋆ pairs measured and sources that had to scan the targets they share no
// value with.
func agp(blockIdx int, b *index.Block, tau int, c crew, mergeCap float64, memo *agpMemo, tr *Trace) (abnormal, abnormalPieces, promotions, pairs, fullScans int) {
	var prev agpMemo // what the previous rebuild left, if it searched
	if memo != nil {
		prev, *memo = *memo, agpMemo{}
	}
	if len(b.Groups) <= 1 {
		return
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
		return
	}
	if len(normalGroups) == 0 {
		// Promote the largest abnormal group (ties: the smaller reason) to
		// normal so every other group has a merge target, and record the
		// promotion — repair audits must see that this block was degenerate
		// and which group the others were measured against.
		slices.SortFunc(abnormalGroups, func(a, b *index.Group) int {
			return cmp.Or(cmp.Compare(b.TupleCount(), a.TupleCount()), compareGroups(a, b))
		})
		normalGroups = abnormalGroups[:1]
		abnormalGroups = abnormalGroups[1:]
		promotions = 1
		if tr != nil {
			promo := agpRecord(blockIdx, b, normalGroups[0])
			promo.Promoted = true
			tr.addAGP(promo)
		}
		if len(abnormalGroups) == 0 {
			return
		}
	}

	// Deterministic processing order.
	slices.SortFunc(abnormalGroups, compareGroups)

	targets := make([]agpTarget, len(normalGroups))
	for i, g := range normalGroups {
		star := g.Star()
		targets[i] = agpTarget{g: g, kid: star.KeyID(), ids: star.ValueIDs()}
	}
	search := agpSearch{targets: targets}

	// With the previous rebuild's memo, work out which targets moved since
	// (added, removed, or different γ⋆) and index the rest.
	var changed map[uint32]bool
	var targetIdx map[uint32]int
	var reusable map[uint32]agpBest // the previous rebuild's decisions
	if memo != nil && promotions == 0 {
		memo.targets = make(map[uint32]uint32, len(targets))
		memo.best = make(map[uint32]agpBest, len(abnormalGroups))
		targetIdx = make(map[uint32]int, len(targets))
		for i := range targets {
			memo.targets[targets[i].g.KeyID()] = targets[i].kid
			targetIdx[targets[i].g.KeyID()] = i
		}
		if prev.targets != nil {
			reusable = prev.best
			changed = make(map[uint32]bool)
			for k, kid := range memo.targets {
				if was, ok := prev.targets[k]; !ok || was != kid {
					changed[k] = true
				}
			}
			for k := range prev.targets {
				if _, ok := memo.targets[k]; !ok {
					changed[k] = true // removed: any decision pointing here rescans
				}
			}
		}
	}
	// Indices of moved targets, in scan order — sources with a reusable
	// decision measure only these.
	var changedIdx []int
	for i := range targets {
		if changed[targets[i].g.KeyID()] {
			changedIdx = append(changedIdx, i)
		}
	}

	// Each source's γ⋆, and whether a cached decision can stand in for its
	// search.
	type decision struct {
		star  *index.Piece
		reuse bool
		best  int
		d     float64 // distance of the best target
	}
	decided := make([]decision, len(abnormalGroups))
	searching := false
	for i, src := range abnormalGroups {
		star := src.Star()
		if star == nil {
			continue
		}
		decided[i].star = star
		if e, ok := reusable[src.KeyID()]; ok && e.srcKid == star.KeyID() && !changed[e.target] {
			// A target that did not move is a target of this rebuild, so
			// the targetIdx lookup hits.
			decided[i] = decision{star: star, reuse: true, best: targetIdx[e.target], d: e.d}
		}
		searching = searching || !decided[i].reuse
	}
	if searching {
		search.build()
	}
	searchers := make([]*agpSearcher, c.size)
	c.each(len(abnormalGroups), func(p, i int, ev *distance.Evaluator) {
		dc := &decided[i]
		if dc.star == nil {
			return
		}
		s := searchers[p]
		if s == nil {
			s = &agpSearcher{agpSearch: &search, ev: ev}
			if searching {
				s.shared = make([]int32, len(targets))
			}
			searchers[p] = s
		}
		sids := dc.star.ValueIDs()
		if !dc.reuse {
			dc.best, dc.d = s.nearest(sids)
			return
		}
		// Every unchanged target lost to the cached decision last rebuild;
		// only the moved ones can challenge it.
		for _, t := range changedIdx {
			dc.best, dc.d = s.challenge(sids, t, dc.best, dc.d)
		}
	})
	for _, s := range searchers {
		if s != nil {
			pairs += s.pairs
			fullScans += s.fullScans
		}
	}

	for i, src := range abnormalGroups {
		dc := decided[i]
		if dc.star == nil {
			continue
		}
		sids, best, bestD := dc.star.ValueIDs(), dc.best, dc.d
		if memo != nil && promotions == 0 && best >= 0 {
			memo.best[src.KeyID()] = agpBest{srcKid: dc.star.KeyID(), target: targets[best].g.KeyID(), d: bestD}
		}
		abnormal++
		abnormalPieces += len(src.Pieces)
		merged := best >= 0 && bestD <= mergeCap*float64(maxRuneLen(c.ev, sids, targets[best].ids))
		if tr != nil {
			// Recorded before the merge moves src's pieces into its target.
			merge := agpRecord(blockIdx, b, src)
			if merged {
				merge.TargetKey = targets[best].g.Key()
			}
			tr.addAGP(merge)
		}
		if merged {
			b.MergeGroups(src, targets[best].g)
		}
	}
	return abnormal, abnormalPieces, promotions, pairs, fullScans
}

// agpRecord is the trace entry of one abnormal-group decision about src,
// without its outcome. Built only when tracing: it copies and sorts the
// group's tuple lists.
func agpRecord(blockIdx int, b *index.Block, src *index.Group) AGPMerge {
	m := AGPMerge{
		BlockIndex:   blockIdx,
		RuleID:       b.Rule.ID,
		SourceKey:    src.Key(),
		SourcePieces: len(src.Pieces),
	}
	for _, p := range src.Pieces {
		m.SourceTuples = append(m.SourceTuples, p.TupleIDs...)
	}
	sort.Ints(m.SourceTuples)
	return m
}

// compareGroups orders two groups of one block by their reasons.
func compareGroups(a, b *index.Group) int {
	return index.CompareKeys(a.Dict(), a.ReasonIDs(), b.ReasonIDs())
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
