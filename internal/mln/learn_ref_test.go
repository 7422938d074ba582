package mln

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// refLearnWeights is the learner as it was before the softmax state was kept
// across updates and the groups were interleaved: group by group, a
// from-scratch softmax over the whole group before every single-weight
// update, sweeping until the group's own largest step is under tolerance or
// the sweep bound. It is the oracle LearnWeights must match bit for bit, and
// it returns each group's sweep count (0 for one that does not learn).
// Inputs are assumed valid.
func refLearnWeights(groups [][]int, counts []float64, init []float64) ([]float64, []int) {
	w := make([]float64, len(counts))
	copy(w, init)
	iterations := make([]int, len(groups))
	for gi, g := range groups {
		if len(g) < 2 {
			continue
		}
		total := 0.0
		for _, i := range g {
			total += counts[i]
		}
		if total == 0 {
			continue
		}
		probs := make([]float64, len(g))
		sweeps := 0
		for sweeps < maxIters {
			sweeps++
			maxDelta := 0.0
			for k, i := range g {
				refSoftmaxInto(probs, w, g)
				p := probs[k]
				grad := counts[i] - total*p - (w[i]-init[i])*invSigma2
				hess := total*p*(1-p) + invSigma2 + damping
				step := grad / hess
				if step > maxStep {
					step = maxStep
				} else if step < -maxStep {
					step = -maxStep
				}
				w[i] += step
				if d := math.Abs(step); d > maxDelta {
					maxDelta = d
				}
			}
			if maxDelta < tolerance {
				break
			}
		}
		iterations[gi] = sweeps
	}
	return w, iterations
}

func refSoftmaxInto(dst []float64, w []float64, idx []int) {
	maxW := math.Inf(-1)
	for _, i := range idx {
		if w[i] > maxW {
			maxW = w[i]
		}
	}
	var z float64
	for k, i := range idx {
		dst[k] = math.Exp(w[i] - maxW)
		z += dst[k]
	}
	for k := range dst {
		dst[k] /= z
	}
}

// refProbs is the reference's weights w as LearnWeights returns them: per
// group of two or more, the in-group softmax of refSoftmaxInto; 1 for a
// singleton and for a candidate in no group.
func refProbs(groups [][]int, w []float64) []float64 {
	probs := make([]float64, len(w))
	for i := range probs {
		probs[i] = 1
	}
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		p := make([]float64, len(g))
		refSoftmaxInto(p, w, g)
		for k, i := range g {
			probs[i] = p[k]
		}
	}
	return probs
}

// eachOn returns an Each that runs the items on `participants` goroutines,
// each claiming the next unclaimed item until none is left.
func eachOn(participants int) Each {
	return func(n int, item func(int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range participants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					item(i)
				}
			}()
		}
		wg.Wait()
	}
}

// checkAgainstRef fails unless LearnWeights returns the in-group softmax of
// the reference's weights (refProbs) bit for bit and each group's sweep count, for every chunk count from 1 to
// 5 run by 1, 2 or 3 participants, and unless every group gets the same
// bits and sweeps when it is learned alone — a group learned once and
// copied to its duplicates included, as the reference learns every copy. It
// returns the most sweeps any group made.
func checkAgainstRef(t *testing.T, groups [][]int, counts, init []float64) int {
	t.Helper()
	ref, wantSweeps := refLearnWeights(groups, counts, init)
	want := refProbs(groups, ref)
	for chunks := 1; chunks <= 5; chunks++ {
		for participants := 1; participants <= 3; participants++ {
			got, sweeps, err := LearnWeights(groups, counts, init, chunks, eachOn(participants), nil)
			if err != nil {
				t.Fatalf("LearnWeights: %v", err)
			}
			if !slices.Equal(sweeps, wantSweeps) {
				t.Fatalf("%d chunks on %d participants: sweeps %v, reference %v", chunks, participants, sweeps, wantSweeps)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d chunks on %d participants: probability %d = %x (%v), reference %x (%v)", chunks, participants, i,
						math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
				}
			}
		}
	}
	for gi, g := range groups {
		alone, sweeps, err := LearnWeights([][]int{g}, counts, init, 1, nil, nil)
		if err != nil {
			t.Fatalf("LearnWeights: %v", err)
		}
		if sweeps[0] != wantSweeps[gi] {
			t.Fatalf("group %d learned alone: %d sweeps, among the others %d", gi, sweeps[0], wantSweeps[gi])
		}
		for _, i := range g {
			if math.Float64bits(alone[i]) != math.Float64bits(want[i]) {
				t.Fatalf("group %d learned alone: probability %d = %x (%v), among the others %x (%v)", gi, i,
					math.Float64bits(alone[i]), alone[i], math.Float64bits(want[i]), want[i])
			}
		}
	}
	return slices.Max(append(wantSweeps, 0))
}

func TestLearnWeightsMatchesReferenceCases(t *testing.T) {
	cases := []struct {
		name   string
		groups [][]int
		counts []float64
		init   []float64 // nil: the Eq. 4 priors
		capped bool      // must run into the sweep bound unconverged
	}{
		{name: "tied maxima", groups: [][]int{{0, 1, 2}}, counts: []float64{5, 5, 1}, init: []float64{0.7, 0.7, 0.1}},
		// The largest weight belongs to the least supported member: its first
		// update steps it down past another, so the group rebases.
		{name: "max steps down below another", groups: [][]int{{0, 1, 2}}, counts: []float64{1, 9, 4}, init: []float64{3, 2.5, 0}},
		{name: "all-equal counts", groups: [][]int{{0, 1, 2, 3}}, counts: []float64{3, 3, 3, 3}},
		{name: "zero-count group beside a live one", groups: [][]int{{0, 1}, {2, 3}}, counts: []float64{0, 0, 4, 1}},
		{name: "singletons", groups: [][]int{{0}, {1}, {2, 3}}, counts: []float64{7, 2, 6, 1}},
		{name: "uncovered candidate", groups: [][]int{{0, 2}}, counts: []float64{3, 9, 1}},
		{name: "interleaved members", groups: [][]int{{4, 0, 2}, {3, 1}}, counts: []float64{1, 8, 2, 1, 30}},
		{name: "signed zero weights", groups: [][]int{{0, 1}}, counts: []float64{2, 1}, init: []float64{math.Copysign(0, -1), 0}},
		{name: "sweep cap", groups: [][]int{{0, 1, 2, 3, 4, 5}}, counts: []float64{4000, 900, 70, 5, 1, 1}, capped: true},
		{name: "sweep cap beside a converging group", groups: [][]int{{0, 1, 2, 3, 4, 5}, {6, 7}},
			counts: []float64{4000, 900, 70, 5, 1, 1, 3, 2}, capped: true},
		// A support so large that rounding in counts[i] − total·p leaves a
		// step noise near tolerance: the group's largest step is under it at
		// sweeps 78–79 and over it at 80–81, while the other group first gets
		// under at 80. The first group stops at 78 all the same.
		{name: "step rises after a sub-tolerance sweep", groups: [][]int{{0, 1}, {2, 3}},
			counts: []float64{0, 4.7385474302e+10, 7, 10}, init: []float64{0, 1, 7.0 / 17, 10.0 / 17}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			init := tc.init
			if init == nil {
				init = PriorWeights(tc.counts)
			}
			// With more chunks than groups that learn, some chunks hold none:
			// every single-group case covers an empty chunk.
			iters := checkAgainstRef(t, tc.groups, tc.counts, init)
			if tc.capped && iters != maxIters {
				t.Errorf("converged in %d sweeps; the case is meant to hit the %d-sweep bound", iters, maxIters)
			}
		})
	}
}

func TestLearnWeightsMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(60)
		perm := rng.Perm(n)
		var groups [][]int
		for len(perm) > 0 {
			size := 1 + rng.Intn(8)
			if rng.Intn(10) == 0 {
				size = 1 + rng.Intn(40) // one long group among short ones
			}
			size = min(size, len(perm))
			groups = append(groups, perm[:size])
			perm = perm[size:]
		}
		counts := make([]float64, n)
		for i := range counts {
			switch rng.Intn(4) {
			case 0:
				counts[i] = float64(rng.Intn(3)) // zeros and ties
			case 1:
				counts[i] = float64(1 + rng.Intn(2000))
			default:
				counts[i] = float64(1 + rng.Intn(12))
			}
		}
		init := PriorWeights(counts)
		if round%3 == 0 {
			// Coarse starting weights: ties for the largest, and maxima that
			// sit on weakly supported members and have to come down.
			for i := range init {
				init[i] = float64(rng.Intn(5)) / 2
			}
		}
		checkAgainstRef(t, groups, counts, init)
	}
}

// TestLearnWeightsDuplicateGroups: groups whose members' counts and initial
// weights are equal, in order, learn once and share the weights. Every case
// must still match the reference, which learns each copy on its own.
func TestLearnWeightsDuplicateGroups(t *testing.T) {
	// groupsOf numbers the candidates group by group: one group per count
	// vector, with the matching initial weights (nil: the Eq. 4 priors).
	groupsOf := func(counts, inits [][]float64) (groups [][]int, c, init []float64) {
		for gi, gc := range counts {
			var g []int
			for k, x := range gc {
				g = append(g, len(c))
				c = append(c, x)
				if inits != nil {
					init = append(init, inits[gi][k])
				}
			}
			groups = append(groups, g)
		}
		if inits == nil {
			init = PriorWeights(c)
		}
		return groups, c, init
	}
	repeat := func(n int, v []float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	capped := []float64{4000, 900, 70, 5, 1, 1}
	var seams [][]float64
	for i := range 10 {
		// Ten distinct groups of 2–6 members, each followed by two groups
		// that recur all along the list — or, after the first and the sixth,
		// by two copies of that group — so every chunk count cuts copies
		// away from their originals.
		g := make([]float64, 2+i%5)
		for k := range g {
			g[k] = float64(1 + (i*7+k*3)%11)
		}
		seams = append(seams, g, []float64{1, 3}, []float64{1, 5, 1, 3, 2, 6})
		if i == 0 || i == 5 {
			seams[len(seams)-2], seams[len(seams)-1] = g, g
		}
	}
	mixed := [][]float64{{0, 0}, {7}, {0, 0, 0}, {3, 1}, {7}, {0, 0}, {3, 1}, {0, 0, 0}, {2}}

	cases := []struct {
		name          string
		counts, inits [][]float64
		capped        bool
	}{
		{name: "many identical groups", counts: repeat(40, []float64{5, 2, 1})},
		{name: "identical groups beside distinct ones", counts: append(repeat(6, []float64{9, 9, 1, 4}), []float64{9, 9, 4, 1}, []float64{9, 9, 1}, []float64{9, 9, 1, 4, 0})},
		{name: "equal counts, different init",
			counts: repeat(5, []float64{3, 1, 2}),
			inits:  [][]float64{{0.5, 0.1, 0.2}, {0.5, 0.1, 0.2}, {0.5, 0.2, 0.1}, {0, 0, 0}, {math.Copysign(0, -1), 0, 0}}},
		{name: "duplicates across chunk seams", counts: seams},
		{name: "duplicates of a capped group", counts: [][]float64{capped, {3, 2}, capped, capped, {3, 2}}, capped: true},
		{name: "zero-count duplicates and singletons", counts: mixed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			groups, counts, init := groupsOf(tc.counts, tc.inits)
			iters := checkAgainstRef(t, groups, counts, init)
			if tc.capped && iters != maxIters {
				t.Errorf("converged in %d sweeps; the case is meant to hit the %d-sweep bound", iters, maxIters)
			}
		})
	}
}

// TestLearnWeightsMemoRandom carries one Memo across random calls, each at
// 1–5 chunks on 1–3 participants, drawing its groups from a pool that
// recurs from call to call: a group at the sweep cap, groups with equal
// counts and other priors, a singleton, a group without support, and random
// groups that join the pool. Every call must give the bits and per-group
// sweeps of a call without a memo, must sweep exactly the distinct
// sequences the last call did not learn, and must leave the memo holding
// exactly its own distinct learning groups with their results. The groups
// land on shuffled candidates, so a recalled group is most often a
// different group, on other candidates, than the one the memo learned it
// from.
func TestLearnWeightsMemoRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	type shape struct{ counts, init []float64 }
	key := func(counts, init []float64) string {
		b := make([]byte, 0, 16*len(counts))
		for k := range counts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(counts[k]))
			if init != nil {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(init[k]))
			}
		}
		return string(b)
	}
	capped := []float64{4000, 900, 70, 5, 1, 1}
	pool := []shape{
		{capped, PriorWeights(capped)},
		{[]float64{3, 1, 2}, []float64{0.5, 0.1, 0.2}},
		{[]float64{3, 1, 2}, []float64{0.5, 0.2, 0.1}},
		{[]float64{3, 1, 2}, []float64{0, 0, math.Copysign(0, -1)}},
		{[]float64{7}, []float64{0.3}},
		{[]float64{0, 0}, []float64{0.1, 0.4}},
		{[]float64{5, 2}, []float64{5.0 / 7, 2.0 / 7}},
	}
	fixed := len(pool)
	cappedKey := key(pool[0].counts, pool[0].init)
	var memo Memo
	last := map[string][]int{} // the last call's distinct learning sequences → first group's candidates
	lastCounts := map[string]bool{}
	var moved, dupRecalled, otherPriors, cappedRecalled, idle int
	for call := range 300 {
		var shapes []shape
		for range 2 + rng.Intn(10) {
			if rng.Intn(3) > 0 {
				shapes = append(shapes, pool[rng.Intn(len(pool))])
				continue
			}
			size := 1 + rng.Intn(5)
			s := shape{make([]float64, size), make([]float64, size)}
			for k := range size {
				s.counts[k], s.init[k] = float64(rng.Intn(6)), float64(rng.Intn(4))/4
			}
			shapes = append(shapes, s)
			if len(pool) < 24 {
				pool = append(pool, s)
			} else {
				pool[fixed+rng.Intn(len(pool)-fixed)] = s
			}
		}
		n := 0
		for _, s := range shapes {
			n += len(s.counts)
		}
		perm := rng.Perm(n)
		counts, init := make([]float64, n), make([]float64, n)
		groups := make([][]int, len(shapes))
		at := 0
		for gi, s := range shapes {
			groups[gi] = perm[at : at+len(s.counts)]
			for k, i := range groups[gi] {
				counts[i], init[i] = s.counts[k], s.init[k]
			}
			at += len(s.counts)
		}
		chunks, participants := 1+rng.Intn(5), 1+rng.Intn(3)
		got, sweeps, err := LearnWeights(groups, counts, init, chunks, eachOn(participants), &memo)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSweeps, err := LearnWeights(groups, counts, init, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sweeps, wantSweeps) {
			t.Fatalf("call %d, %d chunks on %d participants: sweeps %v, without a memo %v", call, chunks, participants, sweeps, wantSweeps)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("call %d, %d chunks on %d participants: probability %d = %v, without a memo %v", call, chunks, participants, i, got[i], want[i])
			}
		}

		now := map[string]int{} // distinct learning sequence → its first group
		nowCounts := map[string]bool{}
		swept := 0
		for gi, s := range shapes {
			if _, ok := learns(groups[gi], counts); !ok {
				idle++
				continue
			}
			k := key(s.counts, s.init)
			if _, ok := now[k]; ok {
				if _, recalled := last[k]; recalled {
					dupRecalled++
				}
				continue
			}
			now[k] = gi
			nowCounts[key(s.counts, nil)] = true
			switch was, ok := last[k]; {
			case !ok:
				swept++
				if lastCounts[key(s.counts, nil)] {
					otherPriors++
				}
			case !slices.Equal(was, groups[gi]):
				moved++
				if k == cappedKey {
					cappedRecalled++
				}
			}
		}
		if memo.Swept() != swept {
			t.Fatalf("call %d: swept %d groups, %d distinct sequences were not in the memo", call, memo.Swept(), swept)
		}
		if memo.Len() != len(now) {
			t.Fatalf("call %d: the memo holds %d groups, the call has %d distinct learning sequences", call, memo.Len(), len(now))
		}
		for e := range memo.Len() {
			c, w0, probs, sw := memo.Group(e)
			gi, ok := now[key(c, w0)]
			if !ok {
				t.Fatalf("call %d: the memo holds counts %v, init %v, not a learning group of the call", call, c, w0)
			}
			if sw != wantSweeps[gi] {
				t.Fatalf("call %d: the memo keeps %d sweeps for group %d, a call without it %d", call, sw, gi, wantSweeps[gi])
			}
			for k, i := range groups[gi] {
				if math.Float64bits(probs[k]) != math.Float64bits(want[i]) {
					t.Fatalf("call %d: the memo keeps probability %v for member %d of group %d, a call without it %v", call, probs[k], k, gi, want[i])
				}
			}
		}
		last, lastCounts = map[string][]int{}, nowCounts
		for k, gi := range now {
			last[k] = slices.Clone(groups[gi])
		}
	}
	t.Logf("%d groups recalled onto other candidates (%d at the sweep cap), %d duplicates of a recalled group, %d equal counts with other priors swept, %d singletons or groups without support",
		moved, cappedRecalled, dupRecalled, otherPriors, idle)
	if moved == 0 || cappedRecalled == 0 || dupRecalled == 0 || otherPriors == 0 || idle == 0 {
		t.Fatal("a case the test is meant to cover never came up")
	}
}
