package distributed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/rules"
)

// rowStream is a RowStream over a table's rows that calls at(n) before
// handing out row n (and at(len) before io.EOF), so a test can act at a
// chosen point of the stream.
type rowStream struct {
	tb *dataset.Table
	n  int
	at func(n int)
}

func (s *rowStream) Schema() *dataset.Schema { return s.tb.Schema }

func (s *rowStream) Next() ([]string, error) {
	if s.at != nil {
		s.at(s.n)
	}
	if s.n == s.tb.Len() {
		return nil, io.EOF
	}
	s.n++
	return s.tb.Tuples[s.n-1].Values, nil
}

// noLeak fails t if the goroutines running when it was called are not all
// that remain once the returned check runs: a returned run must have waited
// for every part.
func noLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines running after the run returned, %d before", runtime.NumGoroutine(), before)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestExecutorContextCancel: cancelling a run's context aborts it promptly
// with the context's error and leaves no goroutine of it running — before
// the stream is read, mid-stream, and mid-run.
func TestExecutorContextCancel(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	opts := Options{Workers: 2, Seed: 1, Core: core.Options{Tau: 2}, BatchSize: 4}

	t.Run("before run", func(t *testing.T) {
		check := noLeak(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := CleanStream(ctx, &rowStream{tb: dirty}, rs, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("CleanStream with a cancelled ctx = %v, want context.Canceled", err)
		}
		if _, err := CleanContext(ctx, dirty, rs, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("CleanContext with a cancelled ctx = %v, want context.Canceled", err)
		}
		check()
	})

	t.Run("mid run", func(t *testing.T) {
		check := noLeak(t)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := CleanContext(ctx, dirty, rs, opts)
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
		check()
	})

	t.Run("abandoned executor", func(t *testing.T) {
		// The caller walks away mid-stream: the next flush sees the
		// cancelled context and the stream is read no further.
		check := noLeak(t)
		ctx, cancel := context.WithCancel(context.Background())
		s := &rowStream{tb: dirty, at: func(n int) {
			if n == 8 {
				cancel()
			}
		}}
		if _, err := CleanStream(ctx, s, rs, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("CleanStream cancelled mid-stream = %v, want context.Canceled", err)
		}
		if s.n > 8+opts.BatchSize {
			t.Errorf("read %d rows, want at most one batch past the cancel at row 8", s.n)
		}
		check()
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

// cancelMetric is Levenshtein that, once armed, cancels the run's context
// at its first measurement.
type cancelMetric struct {
	armed  atomic.Bool
	once   sync.Once
	cancel context.CancelFunc
	fired  chan struct{}
}

func (m *cancelMetric) Name() string { return "cancel-levenshtein" }

func (m *cancelMetric) Distance(a, b string) float64 {
	if m.armed.Load() {
		m.once.Do(func() {
			m.cancel()
			close(m.fired)
		})
	}
	return distance.Levenshtein{}.Distance(a, b)
}

// TestCleanContextCancelMidGather: cancelling the run's context while the
// parts are cleaning aborts promptly with context.Canceled, and every part's
// goroutine has returned by then. The metric is armed once the stream is
// drained — the last flush has assigned every row, so the partitioner
// measures nothing more — and so fires in the parts' stage I.
func TestCleanContextCancelMidGather(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	if dirty.Len()%64 != 0 {
		t.Fatalf("fixture has %d rows; the last flush must fall on EOF", dirty.Len())
	}
	check := noLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := &cancelMetric{cancel: cancel, fired: make(chan struct{})}
	s := &rowStream{tb: dirty, at: func(n int) {
		if n == dirty.Len() {
			m.armed.Store(true)
		}
	}}
	opts := Options{Workers: 2, Seed: 1, Core: core.Options{Tau: 2, Metric: m}, BatchSize: 64}
	done := make(chan error, 1)
	go func() {
		_, err := CleanStream(ctx, s, rs, opts)
		done <- err
	}()
	select {
	case err := <-done:
		select {
		case <-m.fired:
		default:
			t.Fatalf("the parts measured no distance (run returned %v): the test cancels nothing", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CleanStream cancelled mid-run = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled mid-run did not return")
	}
	check()
}

// TestWorkerExitAbortsRun: a part whose stage fails ends the run with that
// error, naming the first failing part, once every part's goroutine has
// returned. A rule naming an attribute the table lacks passes the run's own
// checks and fails every part's index build.
func TestWorkerExitAbortsRun(t *testing.T) {
	_, dirty, _ := equivalenceFixture(t)
	rs := rules.MustParseStrings("FD: ProviderID -> NoSuchAttr")
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			check := noLeak(t)
			_, err := Clean(dirty, rs, Options{Workers: k, Seed: 1, Core: core.Options{Tau: 2}})
			if err == nil || !strings.Contains(err.Error(), "part 0") || !strings.Contains(err.Error(), "NoSuchAttr") {
				t.Fatalf("Clean with a failing part = %v, want part 0's error naming NoSuchAttr", err)
			}
			check()
		})
	}
}
