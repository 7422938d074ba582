package core

import (
	"math"
	"slices"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/mln"
)

// learnBlockWeights learns the MLN weight of every piece in the block
// (§5.1.2): each distinct γ is a ground MLN rule whose prior weight is
// c(γ)/Σc (Eq. 4) and whose learned weight comes from diagonal-Newton
// optimization of the grouped likelihood — competing γs are the ones inside
// the same group. Weights are written into Piece.Weight. Returns the most
// Newton sweeps any of the block's groups made.
//
// The learner's chunks of groups are crew items, four per participant so a
// worker that goes idle halfway through still finds some unclaimed; each
// group sweeps until its own step is under tolerance, so every chunk count
// learns the same bits and a group's weights are the same whatever else its
// block holds (mln.LearnWeights). That is what memo (the DeltaCleaner's,
// nil for batch drivers) rests on: a group whose (count, prior) sequence is
// the one it had at the block's last rebuild takes the weights and sweeps
// it had then, and only the others are learned.
func learnBlockWeights(b *index.Block, c crew, memo *learnMemo) (int, error) {
	n := 0
	for _, g := range b.Groups {
		n += len(g.Pieces)
	}
	// The learner's inputs are built in the memo's arrays when there is
	// one, so a rebuild reuses them.
	var own learnInputs
	in := &own
	if memo != nil {
		memo.start(len(b.Groups), n)
		defer memo.finish()
		in = &memo.inputs
	}
	if n == 0 {
		return 0, nil
	}
	// Candidates are numbered group by group, so each group's competing γs
	// are one run of consecutive indices: a sub-slice of members[i] = i.
	members := in.members
	if grow := n - len(members); grow > 0 {
		members = slices.Grow(members, grow)
		for i := len(members); i < n; i++ {
			members = append(members, i)
		}
	}
	counts := slices.Grow(in.counts[:0], n)
	for _, g := range b.Groups {
		for _, p := range g.Pieces {
			counts = append(counts, float64(p.Count()))
		}
	}
	priors := mln.PriorWeights(counts)
	// A singleton's softmax is degenerate and it needs no learning; every
	// other group is learned unless the memo holds it.
	groups := slices.Grow(in.groups[:0], len(b.Groups))
	at := 0
	for gi, g := range b.Groups {
		from := at
		at += len(g.Pieces)
		if len(g.Pieces) > 1 && (memo == nil || !memo.recall(gi, g.KeyID(), counts[from:at], priors[from:at])) {
			groups = append(groups, members[from:at])
		}
	}
	in.members, in.counts, in.groups = members, counts, groups
	var weights []float64
	var sweeps []int
	if len(groups) > 0 {
		var err error
		weights, sweeps, err = mln.LearnWeights(groups, counts, priors, 4*c.size, func(n int, item func(int)) {
			c.each(n, func(_, i int, _ *distance.Evaluator) { item(i) })
		})
		if err != nil {
			return 0, err
		}
	}
	// The learned Newton weights live in log space (ln Pr(γ) = w − ln Z,
	// Eq. 3). The paper uses the weight as "the probability of the attribute
	// values w.r.t. this ground MLN rule being clean" (§3), and the fusion
	// score multiplies weights across blocks (Eq. 5), so the weight stored
	// on each piece is the in-group softmax probability: exp-normalized over
	// the competing γs of its group. An uncontested γ (singleton group) is
	// certainly clean under its rule and gets weight 1.
	iters, at := 0, 0
	for gi, g := range b.Groups {
		from := at
		at += len(g.Pieces)
		if len(g.Pieces) < 2 {
			for _, p := range g.Pieces {
				p.Weight = 1
			}
			continue
		}
		var swept int
		if memo != nil && memo.hit[gi] >= 0 {
			swept = memo.recalled(gi, g.Pieces)
		} else {
			swept, sweeps = sweeps[0], sweeps[1:]
			softmax(g.Pieces, weights[from:at])
		}
		iters = max(iters, swept)
		if memo != nil {
			memo.keep(g.KeyID(), counts[from:at], priors[from:at], g.Pieces, swept)
		}
	}
	return iters, nil
}

// softmax sets each piece's weight to the in-group softmax of ws, its
// learned log-space weight, floored at minPieceWeight. It overwrites ws.
func softmax(ps []*index.Piece, ws []float64) {
	maxW := math.Inf(-1)
	for _, w := range ws {
		if w > maxW {
			maxW = w
		}
	}
	var z float64
	for k, w := range ws {
		ws[k] = math.Exp(w - maxW)
		z += ws[k]
	}
	for k, p := range ps {
		p.Weight = ws[k] / z
		if p.Weight < minPieceWeight {
			p.Weight = minPieceWeight
		}
	}
}

// learnMemo carries one block's learned group weights across its rebuilds
// (the DeltaCleaner's case). A group's weights are a function of its own
// in-order (count, prior) sequence (mln.LearnWeights), so a group whose
// sequence is bit-equal to the one it had at the last rebuild — found by
// its KeyID, which one dictionary keeps across rebuilds — gets the final
// piece weights and the sweep count it had then, and Stats.LearnIterations
// stays what a from-scratch learn gives. An update that keeps the block's Σc
// keeps every untouched group's priors; an insert or delete moves Σc and
// with it every prior, and the block learns all over.
//
// It holds the learning groups of the last rebuild and nothing older: each
// rebuild fills the spare of two flat tables and they swap, so a memo
// allocates nothing once its arrays fit the block.
type learnMemo struct {
	last, next learnTable
	// hit is, per group of the rebuild under way, its entry in last, or −1
	// when it is learned.
	hit []int32
	// relearned counts the groups the last rebuild sent to the learner.
	relearned int
	// inputs are the arrays every rebuild builds the learner's inputs in.
	inputs learnInputs
}

// learnInputs is what learnBlockWeights builds mln.LearnWeights' inputs in:
// members[i] = i, each candidate's count, and the groups to learn as runs
// of members.
type learnInputs struct {
	members []int
	counts  []float64
	groups  [][]int
}

// learnTable is one rebuild's learning groups. Entry e's members are
// at[e] … at[e+1]−1 of counts, priors and weights.
type learnTable struct {
	entry                   map[uint32]int32 // group KeyID → entry
	at                      []int32
	counts, priors, weights []float64
	sweeps                  []int32
}

// reset empties the table and sizes it for up to groups groups of members
// members in all.
func (t *learnTable) reset(groups, members int) {
	if t.entry == nil {
		t.entry = make(map[uint32]int32, groups)
	}
	clear(t.entry)
	t.at = append(slices.Grow(t.at[:0], groups+1), 0)
	t.sweeps = slices.Grow(t.sweeps[:0], groups)
	t.counts = slices.Grow(t.counts[:0], members)
	t.priors = slices.Grow(t.priors[:0], members)
	t.weights = slices.Grow(t.weights[:0], members)
}

// start readies the memo for a rebuild of a block of groups groups and
// members pieces.
func (m *learnMemo) start(groups, members int) {
	m.next.reset(groups, members)
	m.hit = slices.Grow(m.hit[:0], groups)[:groups]
	m.relearned = 0
}

// finish makes the rebuild's table the one the next rebuild recalls.
func (m *learnMemo) finish() { m.last, m.next = m.next, m.last }

// recall reports whether group gi, keyed kid, had the counts and priors it
// has now, bit for bit, at the last rebuild, and notes the answer.
func (m *learnMemo) recall(gi int, kid uint32, counts, priors []float64) bool {
	m.hit[gi] = -1
	e, ok := m.last.entry[kid]
	if !ok {
		m.relearned++
		return false
	}
	from, to := m.last.at[e], m.last.at[e+1]
	if !bitsEqual(m.last.counts[from:to], counts) || !bitsEqual(m.last.priors[from:to], priors) {
		m.relearned++
		return false
	}
	m.hit[gi] = e
	return true
}

// recalled sets group gi's pieces to their remembered weights and returns
// the group's remembered sweeps.
func (m *learnMemo) recalled(gi int, ps []*index.Piece) int {
	e := m.hit[gi]
	for k, w := range m.last.weights[m.last.at[e]:m.last.at[e+1]] {
		ps[k].Weight = w
	}
	return int(m.last.sweeps[e])
}

// keep records one learning group of the rebuild under way.
func (m *learnMemo) keep(kid uint32, counts, priors []float64, ps []*index.Piece, sweeps int) {
	t := &m.next
	t.entry[kid] = int32(len(t.sweeps))
	t.counts = append(t.counts, counts...)
	t.priors = append(t.priors, priors...)
	for _, p := range ps {
		t.weights = append(t.weights, p.Weight)
	}
	t.sweeps = append(t.sweeps, int32(sweeps))
	t.at = append(t.at, int32(len(t.counts)))
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// minPieceWeight is the positive floor applied to learned piece weights so
// the fusion-score product (Eq. 5) keeps its ordering semantics.
const minPieceWeight = 1e-6
