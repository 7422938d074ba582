package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
)

// agpMemo is AGP's state for one block of the delta engine, kept across
// its re-cleans (agpMemo.decide): the block's normal groups as search
// targets, each with its γ⋆ and, once a source has searched them, their
// postings; and each abnormal group's decision. A re-clean reclassifies
// only the groups its edits touched (index.BlockEditor.Touched): every
// other group holds the same pieces, so it keeps its class, its γ⋆ and, as
// a source, its decision, unless the targets moved. A source's decision
// stands for its search while its γ⋆ is bit-identical (same piece KeyID ⇒
// same value IDs ⇒ same distances) and its best target survived unchanged:
// it then only has to beat the targets added or given a new γ⋆ since —
// every other target already lost to it, and the (distance, reason)
// minimum does not depend on the order targets are measured in, so
// challenging the delta reproduces the full search's choice exactly.
// Groups are named by their KeyID, which one dictionary keeps across
// re-cleans. Batch callers run agpDecide, which keeps nothing.
//
// The decisions also tell the DeltaCleaner which groups after AGP a
// re-clean must redo (agpPlan.reached).
type agpMemo struct {
	search agpSearch
	at     map[uint32]int32   // a target's group KeyID → its index in search.targets
	best   map[uint32]agpBest // abnormal group's KeyID → decision
	// kept says the state describes the block as the last re-clean left
	// it; a promotion, or a block with no normal group, drops it.
	kept bool
	keys []uint32 // the touched KeyIDs of the re-clean in progress, unless it is whole
}

type agpBest struct {
	srcKid uint32
	target uint32 // best target's group KeyID
	d      float64
	merged bool // within the merge cap: the source merges into target
}

// owner is the group after AGP that the decision puts source k in.
func (e agpBest) owner(k uint32) uint32 {
	if e.merged {
		return e.target
	}
	return k
}

// agpTarget is one normal group and its γ⋆.
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
// Where the bound says nothing (δ = 0: cosine, a custom metric or a source
// value holding U+FFFD; a best no better than k·δ) every class is entered,
// which is the plain scan over all targets.
//
// Targets repeat their values heavily (on CAR, 483 targets of FD: Model,
// Type → Make hold 222 / 31 / 27 distinct values), so a source measures each
// distinct target value once, into a table per position, and sums every
// target it judges from its tables (agpSearcher.tabled) instead of
// measuring the target whole. The distinct values per position (vals,
// ascending) and each target's index among them (at) are read off the
// sorted postings. Every piece of a rule's block has the rule's arity, so
// every γ⋆, a source's or a target's, has the same positions.
//
// The postings are built before the first source is decided (ready). The
// delta engine keeps them across re-cleans and files or unfiles only the
// targets that moved; a move drops the value lists, which the next decision
// derives again from the postings. The targets, postings and value lists
// are read-only while sources are decided (run), so any number of searchers
// share them, each with its own evaluator, tables and scratch.
type agpSearch struct {
	targets []agpTarget
	arity   int            // every γ⋆'s arity
	post    [][]agpPosting // one run per position, sorted by id; nil until built
	// vals holds each position's distinct target values, ascending, one
	// position after another; at[t·arity+p] is the index in vals of target
	// t's value at p; order lists the positions in the order a table sum
	// adds them. All three live in slab; nil vals means not derived.
	vals, at, order []uint32
	slab            []uint32
}

type agpPosting struct {
	id     uint32
	target int32
}

func (s *agpSearch) build(integral bool) {
	s.arity = len(s.targets[0].ids)
	n := len(s.targets)
	slab := make([]agpPosting, s.arity*n)
	s.post = make([][]agpPosting, s.arity)
	for p := range s.post {
		run := slab[p*n : (p+1)*n : (p+1)*n]
		for i := range s.targets {
			run[i] = agpPosting{id: s.targets[i].ids[p], target: int32(i)}
		}
		slices.SortFunc(run, func(a, b agpPosting) int {
			return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.target, b.target))
		})
		s.post[p] = run
	}
	s.tabulate(integral)
}

// tabulate derives vals, at and order from the postings, reusing the slab.
// Where every distance is an exact integer (integral), a sum is the same
// float in any order, and order lists the positions with the fewest
// distinct values first, so a target that loses is dropped after the
// fewest distances; under any other metric it is position order, the order
// every distance of one pair of γ⋆s is summed in.
func (s *agpSearch) tabulate(integral bool) {
	k, n := s.arity, len(s.targets)
	d := 0
	for _, run := range s.post {
		for i := range run {
			if i == 0 || run[i].id != run[i-1].id {
				d++
			}
		}
	}
	need := 2*k + k*n + d
	if cap(s.slab) < need {
		s.slab = make([]uint32, need)
	}
	slab := s.slab[:need]
	order, first, at, vals := slab[:k], slab[k:2*k], slab[2*k:2*k+k*n], slab[2*k+k*n:]
	j := uint32(0)
	for p, run := range s.post {
		order[p], first[p] = uint32(p), j
		for i, e := range run {
			if i == 0 || e.id != run[i-1].id {
				vals[j] = e.id
				j++
			}
			at[int(e.target)*k+p] = j - 1
		}
	}
	distinct := func(p uint32) uint32 {
		if int(p) == k-1 {
			return j - first[p]
		}
		return first[p+1] - first[p]
	}
	if integral {
		slices.SortFunc(order, func(a, b uint32) int { return cmp.Or(cmp.Compare(distinct(a), distinct(b)), cmp.Compare(a, b)) })
	}
	s.vals, s.at, s.order = vals, at, order
}

// ready makes the search ready for sources to be decided: it builds the
// postings, or derives the value lists again after a target moved.
func (s *agpSearch) ready(integral bool) {
	if s.post == nil {
		s.build(integral)
	} else if s.vals == nil {
		s.tabulate(integral)
	}
}

// posting is where target t's posting for value id sits in run, which
// holds it.
func posting(run []agpPosting, id uint32, t int32) int {
	i, _ := slices.BinarySearchFunc(run, id, func(e agpPosting, id uint32) int { return cmp.Compare(e.id, id) })
	for run[i].target != t {
		i++
	}
	return i
}

// file adds target t's postings, once they are built.
func (s *agpSearch) file(t int32) {
	if s.post == nil {
		return
	}
	s.vals = nil
	for p, id := range s.targets[t].ids {
		run := s.post[p]
		i, _ := slices.BinarySearchFunc(run, id+1, func(e agpPosting, id uint32) int { return cmp.Compare(e.id, id) })
		s.post[p] = slices.Insert(run, i, agpPosting{id: id, target: t})
	}
}

// unfile takes target t's postings out.
func (s *agpSearch) unfile(t int32) {
	if s.post == nil {
		return
	}
	s.vals = nil
	for p, id := range s.targets[t].ids {
		i := posting(s.post[p], id, t)
		s.post[p] = slices.Delete(s.post[p], i, i+1)
	}
}

// agpSearcher is one participant's view of a shared agpSearch: its own
// evaluator, tables, scratch and cost counters.
type agpSearcher struct {
	*agpSearch
	ev *distance.Evaluator
	// shared[t] counts the positions at which target t holds the current
	// source's value; touched lists the targets with a non-zero count.
	shared  []int32
	touched []int32
	// dist[j] is the current source's distance to vals[j] at its position,
	// or −1 while unmeasured; filled lists the j measured.
	dist   []float64
	filled []int32

	pairs     int // γ⋆ pairs judged
	fullScans int // sources that went on to the targets sharing nothing
	dists     int // table entries measured
}

// searcher returns a searcher over s with room for its targets and tables.
func (s *agpSearch) searcher(ev *distance.Evaluator) *agpSearcher {
	n, d := len(s.targets), len(s.vals)
	scratch := make([]int32, n+d)
	dist := make([]float64, d)
	for j := range dist {
		dist[j] = -1
	}
	return &agpSearcher{agpSearch: s, ev: ev, shared: scratch[:n:n], dist: dist, filled: scratch[n : n : n+d]}
}

// tabled judges target i against the running best and returns the better
// of the two: its distance is summed from the source's tables in the
// search's order, and the target is dropped once the partial sum passes the
// best. An entry is measured the first time a target needs it, capped at
// the running best (the table is this source's memo): one clipped past that
// cap stays past every later best, which only falls, so it drops every
// target that holds it. A target that survives has every entry exact,
// summed in position order or, where distances are integers, in an order
// that gives the same float, so it is judged on its exact γ⋆ distance.
// Strictly nearer wins; an exact distance tie falls to the smaller reason
// under CompareKeys, never to the order targets are measured in.
func (s *agpSearcher) tabled(sids []uint32, i, best int, bestD float64) (int, float64) {
	s.pairs++
	at := s.at[i*s.arity : (i+1)*s.arity]
	d := 0.0
	for _, p := range s.order {
		j := at[p]
		e := s.dist[j]
		if e < 0 {
			e = s.ev.PairBounded(sids[p], s.vals[j], bestD)
			s.dist[j] = e
			s.filled = append(s.filled, int32(j))
			s.dists++
		}
		if d += e; d > bestD {
			return best, bestD
		}
	}
	if d < bestD || (d == bestD && best >= 0 && compareGroups(s.targets[i].g, s.targets[best].g) < 0) {
		return i, d
	}
	return best, bestD
}

// reset empties the tables and class counts for the next source.
func (s *agpSearcher) reset() {
	for _, t := range s.touched {
		s.shared[t] = 0
	}
	s.touched = s.touched[:0]
	for _, j := range s.filled {
		s.dist[j] = -1
	}
	s.filled = s.filled[:0]
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
	if delta > 0 {
		for p, id := range sids {
			run := s.post[p]
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
					best, bestD = s.tabled(sids, int(t), best, bestD)
				}
			}
			continue
		}
		s.fullScans++
		for i := 0; i < n; i++ {
			if len(s.touched) == 0 || s.shared[i] == 0 {
				best, bestD = s.tabled(sids, i, best, bestD)
			}
		}
	}
	s.reset()
	return best, bestD
}

// agpJob is one source to decide: its γ⋆ and, when best is not −1, a kept
// decision (best target, distance d) that only the challengers may beat.
// run leaves the decision in best and d.
type agpJob struct {
	star *index.Piece
	best int
	d    float64
}

// run decides every job, each one crew item: a job without a kept decision
// searches all targets (nearest); one with a kept decision is challenged by
// the targets challengers lists alone, every other target having lost to
// it, and needs no searcher when there are none. It returns the searchers,
// whose counters say what the decisions measured.
func (s *agpSearch) run(c crew, jobs []agpJob, challengers []int) []*agpSearcher {
	searchers := make([]*agpSearcher, c.size)
	if len(jobs) == 0 {
		return searchers
	}
	s.ready(c.ev.Integral())
	c.each(len(jobs), func(w, k int, ev *distance.Evaluator) {
		j := &jobs[k]
		if j.best >= 0 && len(challengers) == 0 {
			return
		}
		sr := searchers[w]
		if sr == nil {
			sr = s.searcher(ev)
			searchers[w] = sr
		}
		sids := j.star.ValueIDs()
		if j.best < 0 {
			j.best, j.d = sr.nearest(sids)
			return
		}
		for _, t := range challengers {
			j.best, j.d = sr.tabled(sids, t, j.best, j.d)
		}
		sr.reset()
	})
	return searchers
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
	// reached lists, for agpMemo.decide, the KeyIDs of the groups after AGP
	// a touched group or a moved decision belonged to at the last re-clean
	// or belongs to now, possibly repeated. whole says no decision of the
	// last re-clean was kept, so nothing can be compared with it: every
	// group after AGP is new.
	reached []uint32
	whole   bool

	abnormal, abnormalPieces, promotions, pairs, fullScans, dists int
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

// merge records that group src merges into group t, both indices into a
// block of n groups.
func (p *agpPlan) merge(n int, src, t int32) {
	if p.into == nil {
		p.into = make([]int32, n)
		for i := range p.into {
			p.into[i] = -1
		}
	}
	p.into[src] = t
}

// lay lays merges out from into: counted by target, then in group order,
// so each target's sources ascend.
func (p *agpPlan) lay() {
	if p.into == nil {
		return
	}
	at := make([]int32, len(p.into)+1)
	for _, t := range p.into {
		if t >= 0 {
			at[t+1]++
		}
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	p.merges = make([][2]int32, at[len(at)-1])
	for i, t := range p.into {
		if t >= 0 {
			p.merges[at[t]] = [2]int32{t, int32(i)}
			at[t]++
		}
	}
}

// agp runs Abnormal Group Processing (§5.1.1) on one block: agpDecide, then
// agpMerge. Returns the number of abnormal groups detected, the total γ
// count inside them (#dag), the number of promotions (0 or 1), and what the
// search cost: γ⋆ pairs judged and sources that had to scan the targets
// they share no value with.
func agp(blockIdx int, b *index.Block, tau int, c crew, mergeCap float64, tr *Trace) (abnormal, abnormalPieces, promotions, pairs, fullScans int) {
	p := agpDecide(blockIdx, b, tau, c, mergeCap, tr)
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
// can still win, each distinct target value once per source (γ⋆ values
// repeat across targets), and each distance is bounded by the running best,
// so hopeless targets abandon early. The delta engine decides with
// agpMemo.decide instead, which re-decides only what its edits moved.
//
// Each source's search is one crew item (agpSearch.run), and reads only
// the targets' γ⋆ value IDs and reasons. No decision depends on another, so
// they are taken in block order; a trace records them in the order of the
// sources' reasons, which only a traced run sorts for.
func agpDecide(blockIdx int, b *index.Block, tau int, c crew, mergeCap float64, tr *Trace) (p agpPlan) {
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
	decided := make([]agpJob, len(sources))
	for k, si := range sources {
		decided[k] = agpJob{star: b.Groups[si].Star(), best: -1}
	}
	p.count(search.run(c, decided, nil))

	for k, si := range sources {
		dc := decided[k]
		src := b.Groups[si]
		d := search.judge(c.ev, dc.star, dc.best, dc.d, mergeCap)
		p.source(src)
		if tr != nil {
			merge := agpRecord(blockIdx, b, src)
			if d.merged {
				merge.TargetKey = targets[dc.best].g.Key()
			}
			tr.addAGP(merge)
		}
		if d.merged {
			p.merge(len(b.Groups), si, normal[dc.best])
		}
	}
	p.lay()
	return p
}

// judge is the decision on a source whose γ⋆ is star, given its nearest
// target best (−1 for none) at distance d: it merges into that target when
// d is within mergeCap times the longer γ⋆'s length in runes.
func (s *agpSearch) judge(ev *distance.Evaluator, star *index.Piece, best int, d, mergeCap float64) agpBest {
	e := agpBest{srcKid: star.KeyID(), d: d}
	if best >= 0 {
		t := &s.targets[best]
		e.target = t.g.KeyID()
		e.merged = d <= mergeCap*float64(maxRuneLen(ev, star.ValueIDs(), t.ids))
	}
	return e
}

// source counts abnormal group g in the plan's counters.
func (p *agpPlan) source(g *index.Group) {
	p.abnormal++
	p.abnormalPieces += len(g.Pieces)
}

// count adds what the searchers measured to the plan's costs.
func (p *agpPlan) count(searchers []*agpSearcher) {
	for _, s := range searchers {
		if s != nil {
			p.pairs += s.pairs
			p.fullScans += s.fullScans
			p.dists += s.dists
		}
	}
}

// decide is agpDecide on the delta engine's kept block, which it does not
// write, re-deciding only what the edits since the last re-clean moved.
// Only the groups the editor touched are classified again: a group above τ
// is a target, and its γ⋆ is taken again; any other is a source. Σc is the
// editor's count of the block's tuples. A source
// is decided again when it was touched, when its target is gone or has a
// new γ⋆ (a full search), or when a target is new or has a new γ⋆ (its
// decision challenged by those targets alone). The plan lists in reached
// the groups after AGP that the touched groups and the moved decisions
// belonged to, then and now. With no state kept, every group is new to it
// and the plan is whole; a block without a normal group falls to
// agpDecide, which promotes one, and keeps no state.
func (m *agpMemo) decide(blockIdx int, e *index.BlockEditor, tau int, c crew, mergeCap float64) (p agpPlan) {
	b := e.Block()
	var keys []uint32
	if m.kept {
		keys = append(m.keys[:0], e.Touched()...)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		m.keys = keys
	} else {
		m.search, m.at, m.best = agpSearch{}, make(map[uint32]int32), make(map[uint32]agpBest)
		keys = make([]uint32, len(b.Groups))
		for i, g := range b.Groups {
			keys[i] = g.KeyID()
		}
		p.whole = true
	}
	// The targets are kept across re-cleans: make room for the new ones
	// exactly.
	added := 0
	for _, k := range keys {
		if _, was := m.at[k]; !was {
			if g := e.Group(k); g != nil && g.TupleCount() > tau {
				added++
			}
		}
	}
	if ts := m.search.targets; added > cap(ts)-len(ts) {
		m.search.targets = append(make([]agpTarget, 0, len(ts)+added), ts...)
	}

	// Reclassify the touched groups. fresh names the targets new or with a
	// new γ⋆, stale those gone or with a new γ⋆.
	var fresh, stale, srcs []uint32
	for _, k := range keys {
		p.reached = append(p.reached, m.best[k].owner(k))
		g := e.Group(k)
		t, was := m.at[k]
		if g != nil && g.TupleCount() > tau {
			delete(m.best, k)
			star := g.Star()
			switch {
			case !was:
				m.at[k] = int32(len(m.search.targets))
				m.search.targets = append(m.search.targets, agpTarget{g: g, kid: star.KeyID(), ids: star.ValueIDs()})
				m.search.file(int32(len(m.search.targets) - 1))
				fresh = append(fresh, k)
			case m.search.targets[t].kid != star.KeyID():
				m.search.unfile(t)
				m.search.targets[t] = agpTarget{g: g, kid: star.KeyID(), ids: star.ValueIDs()}
				m.search.file(t)
				fresh, stale = append(fresh, k), append(stale, k)
			default:
				m.search.targets[t].g = g
			}
			continue
		}
		if was {
			m.drop(k, t)
			stale = append(stale, k)
		}
		if g == nil {
			delete(m.best, k)
		} else {
			srcs = append(srcs, k)
		}
	}
	if len(m.search.targets) == 0 {
		m.kept, m.search, m.at, m.best = false, agpSearch{}, nil, nil
		p = agpDecide(blockIdx, b, tau, c, mergeCap, nil)
		p.whole = true
		return p
	}

	// The sources to decide again, by KeyID in jobKeys, and whether a cached
	// decision stands in for each one's search.
	var jobs []agpJob
	var jobKeys []uint32
	add := func(k uint32) {
		j := agpJob{star: e.Group(k).Star(), best: -1}
		if was, ok := m.best[k]; ok && was.srcKid == j.star.KeyID() && !slices.Contains(stale, was.target) {
			j.best, j.d = int(m.at[was.target]), was.d
		}
		jobs, jobKeys = append(jobs, j), append(jobKeys, k)
	}
	for _, k := range srcs {
		add(k)
	}
	if len(fresh) > 0 || len(stale) > 0 {
		for k, was := range m.best {
			if _, hit := slices.BinarySearch(keys, k); !hit && (len(fresh) > 0 || slices.Contains(stale, was.target)) {
				add(k)
			}
		}
	}
	challengers := make([]int, len(fresh))
	for i, k := range fresh {
		challengers[i] = int(m.at[k])
	}
	p.count(m.search.run(c, jobs, challengers))
	for i, j := range jobs {
		k := jobKeys[i]
		now := m.search.judge(c.ev, j.star, j.best, j.d, mergeCap)
		if was, ok := m.best[k]; !ok || was.merged != now.merged || now.merged && was.target != now.target {
			p.reached = append(p.reached, was.owner(k), now.owner(k))
		}
		m.best[k] = now
	}
	for _, k := range keys {
		p.reached = append(p.reached, m.best[k].owner(k))
	}
	m.kept = true

	// Lay the decisions out over the block's groups: each target's index,
	// then each merged source's. Every group not a target is a source.
	p.total = e.Len()
	at := make([]int32, len(m.search.targets))
	var merged [][2]int32 // (source index, target's index in targets)
	for i, g := range b.Groups {
		if t, ok := m.at[g.KeyID()]; ok {
			at[t] = int32(i)
			continue
		}
		p.source(g)
		if d := m.best[g.KeyID()]; d.merged {
			merged = append(merged, [2]int32{int32(i), m.at[d.target]})
		}
	}
	for _, e := range merged {
		p.merge(len(b.Groups), e[0], at[e[1]])
	}
	p.lay()
	return p
}

// drop takes target t, group k, out of the search: the last target takes
// its index.
func (m *agpMemo) drop(k uint32, t int32) {
	s := &m.search
	s.unfile(t)
	last := int32(len(s.targets) - 1)
	if t != last {
		if s.post != nil {
			for p, id := range s.targets[last].ids {
				s.post[p][posting(s.post[p], id, last)].target = t
			}
		}
		s.targets[t] = s.targets[last]
		m.at[s.targets[t].g.KeyID()] = t
	}
	s.targets[last] = agpTarget{}
	s.targets = s.targets[:last]
	delete(m.at, k)
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
