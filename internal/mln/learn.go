// Package mln is MLNClean's Markov-logic weight learner (§5.1.2, Eq. 3–4):
// every distinct piece of data γ of the two-layer index is a ground MLN rule
// (Table 3), the γs of one group compete, and damped diagonal Newton — the
// optimizer Tuffy uses — assigns each γ the weight the reliability score
// (Def. 2) and the fusion score (Eq. 5) consume. The index is the grounding
// and the pipeline runs no inference over it, so learning is all there is.
package mln

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// The diagonal-Newton learner's settings. They are constants because no
// caller ever needed a second value; the parity goldens pin their effect.
const (
	// maxIters bounds the Newton sweeps.
	maxIters = 100
	// tolerance stops the loop once the max absolute weight change of a
	// sweep falls below it.
	tolerance = 1e-6
	// damping is added to the Hessian diagonal for numerical stability.
	// Larger damping ⇒ smaller, safer steps.
	damping = 1e-3
	// priorSigma is the std-dev of the Gaussian prior centred on the initial
	// weights. The prior both regularizes and pins the per-group shift
	// invariance of the softmax likelihood.
	priorSigma = 2.0
	invSigma2  = 1 / (priorSigma * priorSigma)
	// maxStep clips each per-weight Newton step.
	maxStep = 2.0
)

// LearnWeights fits ground-clause weights by maximizing the grouped softmax
// log-likelihood with a damped diagonal-Newton update — the optimizer family
// Tuffy uses for MLN weight learning — and returns each candidate's in-group
// probability under the learned weights.
//
// The model: candidates are partitioned into groups (in MLNClean, one group
// per MLN-index group, candidates = its distinct γs). Within group g the
// probability of candidate i is softmax over the group's weights, matching
// Eq. 2 restricted to the competing ground clauses (ln Pr(γ) = w − ln Z,
// Eq. 3). counts[i] is the observed support c(γᵢ). The objective is
//
//	L(w) = Σ_g Σ_{i∈g} counts[i]·log softmax_g(w)_i − Σ_i (w_i−w⁰_i)²/(2σ²)
//
// and the update is wᵢ += clip(g_i / (−H_ii + damping)) with
// g_i = counts[i] − C_g·p_i − (w_i−w⁰_i)/σ² and H_ii = −C_g·p_i(1−p_i) − 1/σ².
//
// init supplies the starting (and prior-centre) weights; pass the Eq. 4
// priors w⁰ = c(γ)/Σc. Indices may appear in at most one group. Returns each
// candidate's softmax_g(w)_i over its group's learned weights, the
// probability that the γ is clean under its rule (§3): 1 for a singleton and
// a candidate in no group, and over the initial weights for a group without
// support. Also returns, per group, the sweeps it made (maxIters when it
// never reached the tolerance, 0 when it does not learn).
//
// The groups that learn are cut into `chunks` contiguous runs of about equal
// member counts, and each is one item of each (nil runs the items in order
// on the caller). Groups share nothing: each sweeps until its own largest
// step is under tolerance or it reaches maxIters, so a group's result is a
// function of its own (count, init) sequence alone, whatever the chunks, the
// way each runs them, or the groups beside it. So a group equal to another,
// member for member, copies its result: an earlier group's of the call, or
// a group's of memo's last call. memo (nil: none) keeps the call's distinct
// groups and scratch for the next; with one, the returned slices are the
// memo's until its next call.
func LearnWeights(groups [][]int, counts []float64, init []float64, chunks int, each Each, memo *Memo) (probs []float64, sweeps []int, err error) {
	n := len(counts)
	if len(init) != n {
		return nil, nil, fmt.Errorf("mln: init has %d weights for %d candidates", len(init), n)
	}
	keep := memo != nil
	if !keep {
		memo = new(Memo)
	}
	// ex marks the candidates the partition check has seen: a sweep reads
	// only the terms of the groups that learn, and each is set first.
	l := &learner{counts: counts, init: init, w: resized(memo.w, n), ex: resized(memo.ex, n), sweeps: resized(memo.sweeps, len(groups))}
	memo.w, memo.ex, memo.sweeps = l.w, l.ex, l.sweeps
	clear(l.ex)
	clear(l.sweeps)
	for _, g := range groups {
		for _, i := range g {
			if i < 0 || i >= n {
				return nil, nil, fmt.Errorf("mln: group index %d out of range [0,%d)", i, n)
			}
			if l.ex[i] != 0 {
				return nil, nil, fmt.Errorf("mln: candidate %d appears in multiple groups", i)
			}
			l.ex[i] = 1
		}
	}
	for i, c := range counts {
		if c < 0 {
			return nil, nil, fmt.Errorf("mln: negative count %g for candidate %d", c, i)
		}
	}

	// w holds the weights while a group learns and its probabilities once it
	// stops; a group that does not learn is done here. Then the groups that
	// learn are ordered by their (count, init) sequence, so equal groups are
	// neighbours: the first of each run of equals is learned and the rest
	// copy it, each copy marked in the order itself, as ^(its group index).
	// The memo keeps its groups in the same order, so one walk alongside
	// finds the firsts it holds, and only the others are swept.
	for i := range l.w {
		l.w[i] = 1
	}
	order := slices.Grow(memo.order[:0], len(groups))
	for gi, g := range groups {
		if len(g) < 2 {
			continue
		}
		for _, i := range g {
			l.w[i] = init[i]
		}
		if _, ok := learns(g, counts); ok {
			order = append(order, gi)
		} else {
			softmax(l.w, l.ex, g)
		}
	}
	memo.order = order
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(l.compareSupport(groups[a], groups[b]), cmp.Compare(a, b))
	})
	distinct := len(order)
	for k := len(order) - 1; k > 0; k-- {
		if l.compareSupport(groups[order[k]], groups[order[k-1]]) == 0 {
			order[k] = ^order[k]
			distinct--
		}
	}
	last := &memo.last
	live := slices.Grow(memo.live[:0], distinct)
	members, e := 0, 0
	for _, gi := range order {
		if gi < 0 {
			continue
		}
		g := groups[gi]
		for e < len(last.sweeps) && l.compareEntry(last, e, g) < 0 {
			e++
		}
		if e < len(last.sweeps) && l.compareEntry(last, e, g) == 0 {
			ps := last.probs[last.at[e]:last.at[e+1]]
			for k, i := range g {
				l.w[i] = ps[k]
			}
			l.sweeps[gi] = last.sweeps[e]
			continue
		}
		top := maxWeight(l.w, g)
		expTerms(l.ex, l.w, g, top)
		total, _ := learns(g, counts)
		live = append(live, groupState{members: g, group: gi, total: total, top: top})
		members += len(g)
	}
	memo.swept = len(live)
	// Back in candidate order: contiguous runs of groups touch contiguous
	// stretches of w and ex when the caller numbers candidates group by
	// group, as a block does, so two chunks running side by side share at
	// most the cache lines at a seam.
	slices.SortFunc(live, func(a, b groupState) int { return cmp.Compare(a.members[0], b.members[0]) })

	parts := resized(memo.parts, max(chunks, 1))
	at, cum := 0, 0
	for k := range parts {
		from := at
		for at < len(live) && cum*len(parts) < members*(k+1) {
			cum += len(live[at].members)
			at++
		}
		parts[k] = live[from:at]
		// Longest first: the groups that have a k-th member are then a prefix.
		slices.SortFunc(parts[k], func(a, b groupState) int { return cmp.Compare(len(b.members), len(a.members)) })
	}
	if each == nil {
		each = func(n int, item func(int)) {
			for i := range n {
				item(i)
			}
		}
	}
	each(len(parts), func(k int) { l.run(parts[k]) })
	// The scratch keeps no caller's groups alive.
	clear(live)
	clear(parts)
	memo.live, memo.parts = live, parts

	next := &memo.next
	if keep {
		next.reset()
	}
	from := 0
	for _, gi := range order {
		if gi >= 0 {
			from = gi
			if keep {
				next.add(groups[gi], counts, init, l.w, l.sweeps[gi])
			}
			continue
		}
		for k, i := range groups[from] {
			l.w[groups[^gi][k]] = l.w[i]
		}
		l.sweeps[^gi] = l.sweeps[from]
	}
	memo.last, memo.next = memo.next, memo.last
	return l.w, l.sweeps, nil
}

// Memo carries one caller's distinct learning groups from one LearnWeights
// call to the next: each group's (count, init) sequence with its
// probabilities and sweeps, in the order LearnWeights sorts groups by, so a
// group equal in content to one of the last call — whichever group that was
// — costs a copy. It also keeps every call's scratch. It holds the last
// call's groups and nothing older: each call fills the spare of two flat
// tables and they swap, so a memo allocates nothing once its arrays fit the
// caller's input. The zero Memo is empty and ready to use; a Memo is not
// safe for concurrent calls.
type Memo struct {
	last, next memoTable
	// swept is how many distinct groups the last call swept.
	swept  int
	w, ex  []float64
	sweeps []int
	order  []int
	live   []groupState
	parts  [][]groupState
}

// memoTable is one call's distinct learning groups. Entry e's members are
// at[e] … at[e+1]−1 of counts, init and probs.
type memoTable struct {
	at                  []int
	counts, init, probs []float64
	sweeps              []int
}

// reset empties the table.
func (t *memoTable) reset() {
	t.at = append(t.at[:0], 0)
	t.counts, t.init, t.probs, t.sweeps = t.counts[:0], t.init[:0], t.probs[:0], t.sweeps[:0]
}

// add appends group g: its members' counts, initial weights and
// probabilities, and its sweeps.
func (t *memoTable) add(g []int, counts, init, probs []float64, sweeps int) {
	for _, i := range g {
		t.counts = append(t.counts, counts[i])
		t.init = append(t.init, init[i])
		t.probs = append(t.probs, probs[i])
	}
	t.sweeps = append(t.sweeps, sweeps)
	t.at = append(t.at, len(t.counts))
}

// Len returns how many distinct learning groups the memo holds: those of
// its last call.
func (m *Memo) Len() int { return len(m.last.sweeps) }

// Group returns the memo's e-th group, 0 ≤ e < Len(): its members' counts
// and initial weights, the probabilities learned for them, and its sweeps.
// The slices are the memo's.
func (m *Memo) Group(e int) (counts, init, probs []float64, sweeps int) {
	t := &m.last
	from, to := t.at[e], t.at[e+1]
	return t.counts[from:to], t.init[from:to], t.probs[from:to], t.sweeps[e]
}

// Swept returns how many distinct groups the last call swept rather than
// took from the memo.
func (m *Memo) Swept() int { return m.swept }

// Bytes returns the capacity of the memo's arrays, in bytes. Nothing ever
// shrinks them, so it grows exactly when one of them does.
func (m *Memo) Bytes() int {
	n := 8*(cap(m.w)+cap(m.ex)+cap(m.sweeps)+cap(m.order)) + int(unsafe.Sizeof(groupState{}))*cap(m.live) + 24*cap(m.parts)
	for _, t := range []*memoTable{&m.last, &m.next} {
		n += 8 * (cap(t.at) + cap(t.sweeps) + cap(t.counts) + cap(t.init) + cap(t.probs))
	}
	return n
}

// resized returns s at length n, reusing its array when it fits.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// Each runs item(i) once for every i in [0, n) and returns when all have
// returned. The items may run concurrently.
type Each func(n int, item func(i int))

// learns returns the support of group g and whether the group learns: a
// singleton's softmax is degenerate (p=1), and a group without support has
// only the prior acting on it, so either's weights stay at the prior centre.
func learns(g []int, counts []float64) (total float64, ok bool) {
	if len(g) < 2 {
		return 0, false
	}
	for _, i := range g {
		total += counts[i]
	}
	return total, total != 0
}

// compareSupport orders groups by size, then member by member by the bits
// of the count and of the initial weight. Groups it calls equal learn the
// same weights, member for member.
func (l *learner) compareSupport(a, b []int) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for k, i := range a {
		j := b[k]
		if c := compareMember(l.counts[i], l.init[i], l.counts[j], l.init[j]); c != 0 {
			return c
		}
	}
	return 0
}

// compareEntry is compareSupport between entry e of t and group g.
func (l *learner) compareEntry(t *memoTable, e int, g []int) int {
	from, to := t.at[e], t.at[e+1]
	if c := cmp.Compare(to-from, len(g)); c != 0 {
		return c
	}
	for k, i := range g {
		if c := compareMember(t.counts[from+k], t.init[from+k], l.counts[i], l.init[i]); c != 0 {
			return c
		}
	}
	return 0
}

// compareMember orders two members by the bits of their count, then of
// their initial weight.
func compareMember(c1, w1, c2, w2 float64) int {
	return cmp.Or(cmp.Compare(math.Float64bits(c1), math.Float64bits(c2)), cmp.Compare(math.Float64bits(w1), math.Float64bits(w2)))
}

// learner is one LearnWeights call's shared state. Chunks write disjoint
// elements of w and ex, their groups partitioning the candidates, and of
// sweeps, one per group. w holds a group's weights until it stops, then its
// probabilities.
type learner struct {
	counts, init []float64
	w, ex        []float64
	sweeps       []int
}

// groupState is the softmax state of one group that learns, kept across
// updates and across sweeps: ex[j] = exp(w[j] − top) for each member j, top
// the group's largest weight, pre the sum of the terms before the member
// being updated, last the largest absolute step of its latest sweep, and
// group its index in LearnWeights' groups. A group's weights are written
// only by its own updates (the partition check), so between two of them
// exactly one term changes — unless the largest weight moved, which rebases
// all of them. Either way every term is what a from-scratch softmax over
// the current weights computes (same operands) and z adds them up in member
// order, so the learned weights do not depend on the reuse.
type groupState struct {
	members               []int
	group                 int
	total, top, pre, last float64
}

// run sweeps the groups of one chunk, longest first, dropping each once its
// largest step is under tolerance or at the sweep bound, and records the
// sweeps each made and its probabilities.
func (l *learner) run(live []groupState) {
	for sweeps := 1; len(live) > 0; sweeps++ {
		l.sweep(live)
		// Stable, so the groups that have a k-th member stay a prefix.
		live = slices.DeleteFunc(live, func(g groupState) bool {
			if g.last < tolerance || sweeps == maxIters {
				l.sweeps[g.group] = sweeps
				softmax(l.w, l.ex, g.members)
				return true
			}
			return false
		})
	}
}

// sweep updates every weight of the groups once and records each group's
// largest absolute step in its last.
func (l *learner) sweep(live []groupState) {
	counts, init, w, ex := l.counts, l.init, l.w, l.ex
	// Coordinate-descent Newton: each single-weight update sees its group's
	// current distribution. Updating all weights of a group from one stale
	// distribution makes opposing steps compound (the softmax is
	// shift-invariant) and the sweep oscillates. Within a group the updates
	// run in member order; across groups nothing is shared, so a sweep
	// updates the k-th member of every group before any (k+1)-th: one update
	// is a single chain of dependent exp/add/divide, and neighbours from
	// different groups overlap.
	active := len(live)
	for k := 0; active > 0; k++ {
		for active > 0 && len(live[active-1].members) <= k {
			active--
		}
		for gi := range live[:active] {
			g := &live[gi]
			i := g.members[k]
			if k == 0 {
				g.pre, g.last = 0, 0
			}
			z := g.pre
			for _, j := range g.members[k:] {
				z += ex[j]
			}
			p := ex[i] / z
			grad := counts[i] - g.total*p - (w[i]-init[i])*invSigma2
			hess := g.total*p*(1-p) + invSigma2 + damping
			step := grad / hess
			if step > maxStep {
				step = maxStep
			} else if step < -maxStep {
				step = -maxStep
			}
			wasTop := w[i] == g.top
			w[i] += step
			g.last = max(g.last, math.Abs(step))
			top := g.top
			if w[i] > top {
				top = w[i]
			} else if wasTop {
				top = maxWeight(w, g.members)
			}
			if top == g.top {
				ex[i] = math.Exp(w[i] - top)
				g.pre += ex[i]
				continue
			}
			g.top = top
			expTerms(ex, w, g.members, top)
			g.pre = 0
			for _, j := range g.members[:k+1] {
				g.pre += ex[j]
			}
		}
	}
}

// expTerms sets ex[j] = exp(w[j] − top) for every j of idx: the terms of the
// group's softmax, shifted by its largest weight.
func expTerms(ex, w []float64, idx []int, top float64) {
	for _, j := range idx {
		ex[j] = math.Exp(w[j] - top)
	}
}

// softmax replaces the weights w of group g by their in-group softmax
// probabilities, shifted by the group's largest weight for range, its terms
// added up in member order. It overwrites the group's ex.
func softmax(w, ex []float64, g []int) {
	expTerms(ex, w, g, maxWeight(w, g))
	var z float64
	for _, j := range g {
		z += ex[j]
	}
	for _, j := range g {
		w[j] = ex[j] / z
	}
}

// maxWeight returns the largest of w over idx.
func maxWeight(w []float64, idx []int) float64 {
	top := math.Inf(-1)
	for _, i := range idx {
		if w[i] > top {
			top = w[i]
		}
	}
	return top
}

// PriorWeights computes the Eq. 4 priors: w⁰ᵢ = c(γᵢ) / Σⱼ c(γⱼ) over all
// candidates in a block.
func PriorWeights(counts []float64) []float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}
