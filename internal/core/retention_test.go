package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mlnclean/internal/distance"
	"mlnclean/internal/index"
)

// TestStageIRetainsNoDroppedPiece: a block's pieces share its slabs — piece
// lists, tuple lists, value IDs — which live as long as the block. Stage I
// drops pieces (AGP folds identical pieces together, RSC discards every
// loser), and the slabs must not keep one of them alive: once stage I is
// done, every piece left in no group is collected while the index is still
// reachable.
func TestStageIRetainsNoDroppedPiece(t *testing.T) {
	ix, opts := stageIFixture(t)
	var freed atomic.Int64
	built := 0
	for _, b := range ix.Blocks {
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				built++
				runtime.SetFinalizer(p, func(*index.Piece) { freed.Add(1) })
			}
		}
	}
	ev := distance.NewEvaluator(opts.Metric, ix.Dict())
	for bi, b := range ix.Blocks {
		if r := runBlock(bi, b, soloCrew(ev), opts, phaseAll, nil); r.err != nil {
			t.Fatal(r.err)
		}
	}
	kept := ix.Stats().Pieces
	want := int64(built - kept)
	if want < 100 {
		t.Fatalf("stage I dropped %d of %d pieces, want a fixture that drops at least 100", want, built)
	}
	for i := 0; i < 100 && freed.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if got := freed.Load(); got != want {
		t.Errorf("%d of the %d pieces stage I dropped were collected", got, want)
	}
	runtime.KeepAlive(ix)
}
