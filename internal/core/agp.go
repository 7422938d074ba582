package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
)

// agpMemo carries nearest-target decisions across successive re-cleans of
// the same rule block (the DeltaCleaner's case: one mutation dirties a
// block whose group structure barely moves). It holds what the immediately
// preceding re-clean decided and nothing older: every re-clean empties it and
// only one that goes on to search fills it again, so a re-clean a source sat
// out leaves no decision for it and a session fed ever-new typos does not
// grow it. A source's cached decision is reusable when its γ⋆ is
// bit-identical (same piece KeyID ⇒ same value IDs ⇒ same distances) and its
// best target survived unchanged. It then only has to beat the targets that
// were added or changed since — every unchanged target already lost to it,
// and the (distance, reason) minimum does not depend on the order targets are
// measured in, so challenging the delta reproduces the full search's choice
// exactly. Groups are named by their KeyID, which one dictionary keeps
// across re-cleans. Batch callers pass nil and search every source.
//
// The DeltaCleaner also reads the decisions, merged or past the merge cap,
// to tell which groups after AGP a re-clean must redo (deltaBlock.redo).
// The reuse pays: BenchmarkDeltaApply/mix runs 1.90–1.94 ms/op with it and
// 5.44–6.14 with every source searched again, with the same refused and
// repair counts (three alternating pairs of 400 ops, 2-core Xeon).
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
	merged bool // within the merge cap: the source merges into target
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
// built once before any source searches, and only when one will: a re-clean
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

// agpPlan is what AGP decided about one block before any merge: which
// groups merge into which, the block's Σc and what the decisions cost.
type agpPlan struct {
	// into[i] is the index, among the block's groups, of the group group i
	// merges into, or −1 for a group that stays: a normal or promoted
	// group, or an abnormal one past the merge cap. Nil when none merges.
	into []int32
	// merges lists the (target, source) index pairs of into, by target,
	// then by source index.
	merges [][2]int32
	// total is the block's Σc: its tuples, the Eq. 4 normaliser.
	total int

	abnormal, abnormalPieces, promotions, pairs, fullScans int
}

// stays reports whether group i is a group of the block after AGP.
func (p *agpPlan) stays(i int) bool { return p.into == nil || p.into[i] < 0 }

// sources returns the merges into target t, given that the merges into
// every target before t have been passed: at is where the search starts and
// where the next one starts.
func (p *agpPlan) sources(t int, at *int) [][2]int32 {
	for *at < len(p.merges) && int(p.merges[*at][0]) < t {
		*at++
	}
	from := *at
	for *at < len(p.merges) && int(p.merges[*at][0]) == t {
		*at++
	}
	return p.merges[from:*at]
}

// agp runs Abnormal Group Processing (§5.1.1) on one block: agpDecide, then
// agpMerge. Returns the number of abnormal groups detected, the total γ
// count inside them (#dag), the number of promotions (0 or 1), and what the
// search cost: γ⋆ pairs measured and sources that had to scan the targets
// they share no value with.
func agp(blockIdx int, b *index.Block, tau int, c crew, mergeCap float64, memo *agpMemo, tr *Trace) (abnormal, abnormalPieces, promotions, pairs, fullScans int) {
	p := agpDecide(blockIdx, b, tau, c, mergeCap, memo, tr)
	agpMerge(b, &p)
	return p.abnormal, p.abnormalPieces, p.promotions, p.pairs, p.fullScans
}

// agpDecide is AGP's decision on one block, which it reads and does not
// write: groups whose related-tuple count is ≤ τ are abnormal; each
// abnormal group is to merge into its nearest normal group, where the
// distance between two groups is the distance between their γ⋆ pieces (the
// piece related to the most tuples), unless that distance is past the
// merge cap. If the block has no normal group, the largest group is
// promoted so merging remains well-defined.
//
// The nearest-group search runs entirely over interned value IDs through
// the crew's distance evaluators: agpSearch measures only the targets that
// can still win, per-pair results are memoized symmetrically (γ⋆ values
// repeat across sources) and the per-pair DP is bounded by the running
// best, so hopeless targets abandon early. A non-nil memo further reduces
// repeat re-cleans to the changed targets only.
//
// Each source's search is one crew item, and reads only the targets' γ⋆
// value IDs and reasons. No decision depends on another, so they are taken
// in block order; a trace records them in the order of the sources'
// reasons, which only a traced run sorts for.
func agpDecide(blockIdx int, b *index.Block, tau int, c crew, mergeCap float64, memo *agpMemo, tr *Trace) (p agpPlan) {
	var prev agpMemo // what the previous re-clean left, if it searched
	if memo != nil {
		prev, *memo = *memo, agpMemo{}
	}
	var sources, normal []int32
	for i, g := range b.Groups {
		n := g.TupleCount()
		p.total += n
		if n <= tau {
			sources = append(sources, int32(i))
		} else {
			normal = append(normal, int32(i))
		}
	}
	if len(b.Groups) <= 1 || len(sources) == 0 {
		return p
	}
	if len(normal) == 0 {
		// Promote the largest abnormal group (ties: the smaller reason) to
		// normal so every other group has a merge target, and record the
		// promotion — repair audits must see that this block was degenerate
		// and which group the others were measured against.
		top := 0
		for k, i := range sources {
			a, t := b.Groups[i], b.Groups[sources[top]]
			if c := cmp.Compare(a.TupleCount(), t.TupleCount()); c > 0 || c == 0 && k != top && compareGroups(a, t) < 0 {
				top = k
			}
		}
		normal = []int32{sources[top]}
		sources = slices.Delete(sources, top, top+1)
		p.promotions = 1
		if tr != nil {
			promo := agpRecord(blockIdx, b, b.Groups[normal[0]])
			promo.Promoted = true
			tr.addAGP(promo)
		}
		if len(sources) == 0 {
			return p
		}
	}
	if tr != nil {
		slices.SortFunc(sources, func(x, y int32) int { return compareGroups(b.Groups[x], b.Groups[y]) })
	}

	targets := make([]agpTarget, len(normal))
	for i, gi := range normal {
		g := b.Groups[gi]
		star := g.Star()
		targets[i] = agpTarget{g: g, kid: star.KeyID(), ids: star.ValueIDs()}
	}
	search := agpSearch{targets: targets}

	// With the previous re-clean's memo, work out which targets moved since
	// (added, removed, or different γ⋆) and index the rest.
	var changed map[uint32]bool
	var targetIdx map[uint32]int
	var reusable map[uint32]agpBest // the previous re-clean's decisions
	if memo != nil && p.promotions == 0 {
		memo.targets = make(map[uint32]uint32, len(targets))
		memo.best = make(map[uint32]agpBest, len(sources))
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
	decided := make([]decision, len(sources))
	searching := false
	for k, si := range sources {
		src := b.Groups[si]
		star := src.Star()
		if star == nil {
			continue
		}
		decided[k].star = star
		if e, ok := reusable[src.KeyID()]; ok && e.srcKid == star.KeyID() && !changed[e.target] {
			// A target that did not move is a target of this re-clean, so
			// the targetIdx lookup hits.
			decided[k] = decision{star: star, reuse: true, best: targetIdx[e.target], d: e.d}
		}
		searching = searching || !decided[k].reuse
	}
	if searching {
		search.build()
	}
	searchers := make([]*agpSearcher, c.size)
	c.each(len(sources), func(w, k int, ev *distance.Evaluator) {
		dc := &decided[k]
		if dc.star == nil {
			return
		}
		s := searchers[w]
		if s == nil {
			s = &agpSearcher{agpSearch: &search, ev: ev}
			if searching {
				s.shared = make([]int32, len(targets))
			}
			searchers[w] = s
		}
		sids := dc.star.ValueIDs()
		if !dc.reuse {
			dc.best, dc.d = s.nearest(sids)
			return
		}
		// Every unchanged target lost to the cached decision last re-clean;
		// only the moved ones can challenge it.
		for _, t := range changedIdx {
			dc.best, dc.d = s.challenge(sids, t, dc.best, dc.d)
		}
	})
	for _, s := range searchers {
		if s != nil {
			p.pairs += s.pairs
			p.fullScans += s.fullScans
		}
	}

	n := 0 // merges
	for k, si := range sources {
		dc := decided[k]
		if dc.star == nil {
			continue
		}
		src := b.Groups[si]
		sids, best, bestD := dc.star.ValueIDs(), dc.best, dc.d
		merged := best >= 0 && bestD <= mergeCap*float64(maxRuneLen(c.ev, sids, targets[best].ids))
		if memo != nil && p.promotions == 0 && best >= 0 {
			memo.best[src.KeyID()] = agpBest{srcKid: dc.star.KeyID(), target: targets[best].g.KeyID(), d: bestD, merged: merged}
		}
		p.abnormal++
		p.abnormalPieces += len(src.Pieces)
		if tr != nil {
			merge := agpRecord(blockIdx, b, src)
			if merged {
				merge.TargetKey = targets[best].g.Key()
			}
			tr.addAGP(merge)
		}
		if merged {
			if p.into == nil {
				p.into = make([]int32, len(b.Groups))
				for i := range p.into {
					p.into[i] = -1
				}
			}
			p.into[si] = normal[best]
			n++
		}
	}
	if n > 0 {
		// Counted by target, then laid out in group order: each target's
		// sources ascend.
		at := make([]int32, len(b.Groups)+1)
		for _, t := range p.into {
			if t >= 0 {
				at[t+1]++
			}
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		p.merges = make([][2]int32, n)
		for i, t := range p.into {
			if t >= 0 {
				p.merges[at[t]] = [2]int32{t, int32(i)}
				at[t]++
			}
		}
	}
	return p
}

// agpMerge carries out the plan on the block it was decided on: each
// target takes its sources' pieces (foldInto), then the emptied sources
// leave the block in one pass. A merge moves only a source's pieces into
// its target, so targets are merged independently of one another.
func agpMerge(b *index.Block, p *agpPlan) {
	if len(p.merges) == 0 {
		return
	}
	var srcs []*index.Group
	for at := 0; at < len(p.merges); {
		t := int(p.merges[at][0])
		srcs = srcs[:0]
		for _, e := range p.sources(t, &at) {
			srcs = append(srcs, b.Groups[e[1]])
		}
		foldInto(b, b.Groups[t], srcs)
	}
	b.DropEmpty()
}

// foldInto merges the sources of one target into dst in the order of their
// reasons (compareGroups), the order the paper's serial pass over every
// abnormal group would reach them in, so only the sources of one target
// are ever sorted against each other.
func foldInto(b *index.Block, dst *index.Group, srcs []*index.Group) {
	if len(srcs) > 1 {
		slices.SortFunc(srcs, compareGroups)
	}
	for _, src := range srcs {
		b.MergeGroups(src, dst)
	}
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
