package core

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
)

// TestStageIRetainsNoDroppedPiece: a block is built into slabs — groups,
// piece lists, pieces, tuple lists, value IDs — and stage I drops pieces
// (AGP folds identical pieces together, RSC discards every loser). RSC's
// collapse re-lays each block into slabs of its own, so once stage I is done
// every build slab is collected while the index is still reachable: none of
// them keeps a dropped piece alive. A finalizer on each slab's first element
// tracks it.
func TestStageIRetainsNoDroppedPiece(t *testing.T) {
	_, ix, opts := stageIFixture(t)
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
		if r := runBlock(bi, b, soloCrew(ev), opts, phaseAll); r.err != nil {
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
	return []int{cap(in.counts), cap(in.probs), cap(in.steps)}
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

// TestDeltaReusedGroupsRetentionBounded: a re-clean lays out only the
// groups it redoes, in slabs of their own (Block.Collapse), and the groups
// it reuses keep the slabs an earlier re-clean laid them out in alive, with
// every group of those slabs a later re-clean replaced. Through 300 updates
// on CAR 600 (kindMix), the slabs the engine's blocks keep alive stay
// within twice what a fresh Collapse of the same blocks lays out. A slab is
// tracked from its first group, the head of the group array Collapse
// allocates, by a finalizer that reports when the collector frees it; its
// size is laidBytes of the groups laid out in it.
func TestDeltaReusedGroupsRetentionBounded(t *testing.T) {
	eng, _, inj := carSession(t, 600)
	var live atomic.Int64
	prev := make([]map[*index.Group]bool, len(eng.blocks))
	// note tracks the slab of each block's groups that are new since the
	// last call. Collapse lays a block's groups out in block order, so the
	// first new group heads the slab.
	note := func() {
		for ri, db := range eng.blocks {
			var fresh []*index.Group
			for _, g := range db.block.Groups {
				if !prev[ri][g] {
					fresh = append(fresh, g)
				}
			}
			if len(fresh) > 0 {
				size := int64(laidBytes(fresh))
				live.Add(size)
				runtime.SetFinalizer(fresh[0], func(*index.Group) { live.Add(-size) })
			}
			prev[ri] = make(map[*index.Group]bool, len(db.block.Groups))
			for _, g := range db.block.Groups {
				prev[ri][g] = true
			}
		}
	}
	note()
	const steps = 300
	worst, partial := 0.0, 0
	for step, m := range kindMix(t, inj, "update", steps, 4200) {
		if _, _, err := eng.ApplyVersion([]Mutation{m}); err != nil {
			t.Fatal(err)
		}
		for _, db := range eng.blocks {
			if db.res.regrouped < len(db.block.Groups) && db.laid > 0 {
				partial++
			}
		}
		note()
		if step%25 != 24 {
			continue
		}
		// Two cycles free a finalized slab: the first runs its finalizer.
		for i := 0; i < 4; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		fresh := 0
		for _, db := range eng.blocks {
			fresh += laidBytes(db.block.Groups)
		}
		ratio := float64(live.Load()) / float64(fresh)
		if ratio > 2 {
			t.Fatalf("step %d: the blocks keep %d bytes of slabs alive, %.2f× the %d a fresh Collapse lays out", step, live.Load(), ratio, fresh)
		}
		worst = max(worst, ratio)
	}
	if partial == 0 {
		t.Fatal("no re-clean laid out only some groups: nothing was retained")
	}
	t.Logf("the blocks kept at most %.2f× a fresh Collapse alive", worst)
}
