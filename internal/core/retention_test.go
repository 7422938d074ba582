package core

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mlnclean/internal/distance"
)

// TestStageIRetainsNoDroppedPiece: a block is built into slabs — groups,
// piece lists, pieces, tuple lists, value IDs — and stage I drops pieces
// (AGP folds identical pieces together, RSC discards every loser). RSC's
// collapse re-lays each block into slabs of its own, so once stage I is done
// every build slab is collected while the index is still reachable: none of
// them keeps a dropped piece alive. A finalizer on each slab's first element
// tracks it.
func TestStageIRetainsNoDroppedPiece(t *testing.T) {
	ix, opts := stageIFixture(t)
	var freed atomic.Int64
	slabs := 0
	track := func(ptr any) {
		slabs++
		runtime.SetFinalizer(ptr, func(any) { freed.Add(1) })
	}
	for _, b := range ix.Blocks {
		if len(b.Groups) == 0 {
			continue
		}
		g := b.Groups[0]
		p := g.Pieces[0]
		track(g)
		track(&g.Pieces[0])
		track(p)
		track(&p.TupleIDs[0])
		track(&p.ValueIDs()[0])
	}
	ev := distance.NewEvaluator(opts.Metric, ix.Dict())
	for bi, b := range ix.Blocks {
		if r := runBlock(bi, b, soloCrew(ev), opts, phaseAll, nil); r.err != nil {
			t.Fatal(r.err)
		}
	}
	if slabs < 5*3 {
		t.Fatalf("tracked %d slabs, want a fixture of at least 3 blocks", slabs)
	}
	for i := 0; i < 100 && freed.Load() < int64(slabs); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if got := freed.Load(); got != int64(slabs) {
		t.Errorf("%d of the %d build slabs were collected after stage I", got, slabs)
	}
	runtime.KeepAlive(ix)
}

// learnInputsCaps is the capacity of every array a block's learner inputs
// hold; nothing shrinks them, so it grows exactly when one of them does.
func learnInputsCaps(m *blockMemo) []int {
	in := &m.inputs
	return []int{cap(in.members), cap(in.counts), cap(in.probs), cap(in.groups)}
}

// TestDeltaLearnInputsBounded: the arrays a long-lived engine builds each
// block's learner inputs in track the block, not the engine's history.
// Through 300 mutations of the serving mix on CAR 600, none of them grows
// over the second half of the run.
func TestDeltaLearnInputsBounded(t *testing.T) {
	eng, _, inj := carSession(t, 600)
	const steps = 300
	var half [][]int
	for step, m := range serveMix(inj, steps, 4200) {
		if _, _, err := eng.ApplyVersion([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
		if step == steps/2-1 {
			for _, db := range eng.blocks {
				half = append(half, learnInputsCaps(db.memo))
			}
		}
	}
	for ri, db := range eng.blocks {
		if now := learnInputsCaps(db.memo); !slices.Equal(now, half[ri]) {
			t.Errorf("block %d: the learner inputs' arrays grew over the last %d mutations: %v, then %v", ri, steps/2, half[ri], now)
		}
	}
}
