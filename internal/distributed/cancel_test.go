package distributed

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
)

// TestExecutorContextCancel: cancelling the executor's context aborts the
// run promptly with the context's error and releases the worker goroutines
// (the run returns instead of hanging on the transport).
func TestExecutorContextCancel(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)

	t.Run("before run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		ex, err := NewExecutorContext(ctx, dirty.Schema, rs, Options{Workers: 2, Seed: 1, Core: core.Options{Tau: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Submit(dirty); err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, err := ex.Run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run after cancel = %v, want context.Canceled", err)
		}
	})

	t.Run("mid run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := CleanContext(ctx, dirty, rs, Options{Workers: 2, Seed: 1, Core: core.Options{Tau: 2}})
			done <- err
		}()
		// Cancel while the run is (very likely) in flight; whichever side
		// wins the race, the call must return promptly and, if it lost, with
		// the context's error.
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("CleanContext = %v, want nil or context.Canceled", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cancelled run did not return")
		}
	})

	t.Run("abandoned executor", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		ex, err := NewExecutorContext(ctx, dirty.Schema, rs, Options{Workers: 4, Seed: 1, Core: core.Options{Tau: 2}})
		if err != nil {
			t.Fatal(err)
		}
		batch := dataset.NewTable(dirty.Schema)
		for _, tp := range dirty.Tuples[:8] {
			batch.MustAppend(tp.Values...)
		}
		if err := ex.Submit(batch); err != nil {
			t.Fatal(err)
		}
		// The caller walks away: cancellation alone must tear the transport
		// down so the worker goroutines drain without Run or Close.
		cancel()
		if err := ex.Submit(batch); err == nil {
			t.Error("submit after cancel succeeded")
		}
	})
}

// TestCoreCleanContextCancel: the stand-alone pipeline honours a cancelled
// context between stages and blocks.
func TestCoreCleanContextCancel(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.CleanContext(ctx, dirty, rs, core.Options{Tau: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CleanContext with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestSubmitAfterTransportClose: a transport torn down under a live
// executor fails the next Submit with the transport error instead of
// blocking, and the executor stays failed afterwards.
func TestSubmitAfterTransportClose(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	var tr Transport
	opts := Options{Workers: 2, Seed: 1, Core: core.Options{Tau: 2}}
	opts.Transport = func(k int) Transport {
		tr = NewChanTransport(k)
		return tr
	}
	ex, err := NewExecutor(dirty.Schema, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := dataset.NewTable(dirty.Schema)
	for _, tp := range dirty.Tuples[:16] {
		batch.MustAppend(tp.Values...)
	}
	if err := ex.Submit(batch); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if err := ex.Submit(batch); !errors.Is(err, errTransportClosed) {
		t.Fatalf("Submit after transport close = %v, want %v", err, errTransportClosed)
	}
	// The failure is sticky: later calls report the recorded error.
	if err := ex.Submit(batch); !errors.Is(err, errTransportClosed) {
		t.Fatalf("second Submit after transport close = %v, want %v", err, errTransportClosed)
	}
	if _, err := ex.Run(); !errors.Is(err, errTransportClosed) {
		t.Fatalf("Run after transport close = %v, want %v", err, errTransportClosed)
	}
}

// gatherSignalTransport flags the moment the coordinator enters its gather
// receive loop, so a test can cancel mid-gather deterministically.
type gatherSignalTransport struct {
	Transport
	entered chan struct{}
}

func (t *gatherSignalTransport) CoordinatorRecv() (Message, error) {
	select {
	case <-t.entered:
	default:
		close(t.entered)
	}
	return t.Transport.CoordinatorRecv()
}

// TestCleanContextCancelMidGather: cancelling the run's context while the
// coordinator is blocked gathering worker replies aborts promptly with
// context.Canceled — the watcher tears the transport down under the gather
// loop.
func TestCleanContextCancelMidGather(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	sig := &gatherSignalTransport{entered: make(chan struct{})}
	opts := Options{Workers: 2, Seed: 1, Core: core.Options{Tau: 2}}
	opts.Transport = func(k int) Transport {
		sig.Transport = NewChanTransport(k)
		return sig
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := CleanContext(ctx, dirty, rs, opts)
		done <- err
	}()
	select {
	case <-sig.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never entered gather")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CleanContext cancelled mid-gather = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled mid-gather run did not return")
	}
}

var errReplyLost = errors.New("reply lost")

// failFirstReply fails worker slot's first reply to the coordinator, as a
// transport call failing under a worker would.
type failFirstReply struct {
	Transport
	slot   int
	failed atomic.Bool
}

func (t *failFirstReply) ToCoordinator(m Message) error {
	if w, _, ok := replyFrom(m); ok && w == t.slot && t.failed.CompareAndSwap(false, true) {
		return errReplyLost
	}
	return t.Transport.ToCoordinator(m)
}

// TestWorkerExitAbortsRun: a worker goroutine that exits before its final
// reply ends the run with its error, naming its partition, instead of
// leaving the coordinator blocked in gather.
func TestWorkerExitAbortsRun(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			opts := Options{Workers: k, Seed: 1, Core: core.Options{Tau: 2}}
			opts.Transport = func(n int) Transport {
				return &failFirstReply{Transport: NewChanTransport(n), slot: 1}
			}
			done := make(chan error, 1)
			go func() {
				_, err := Clean(dirty, rs, opts)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "partition 1") || !errors.Is(err, errReplyLost) {
					t.Fatalf("Clean with a failed worker = %v, want partition 1's %q", err, errReplyLost)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("run with a failed worker did not return")
			}
		})
	}
}
