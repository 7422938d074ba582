package distributed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
)

// chaosFixture is a smaller seeded table than equivalenceFixture: the chaos
// grid runs dozens of full cleans, so each one must stay cheap while groups
// stay deep enough for an 8-way partition.
func chaosFixture(t *testing.T) (*dataset.Table, []*rules.Rule) {
	t.Helper()
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 40, Measures: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	return inj.Dirty, rs
}

// chaosSeeds is the fixed seed list the CI chaos job runs; CHAOS_SEEDS
// (comma-separated) overrides it.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	seeds := []int64{1, 7}
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		seeds = seeds[:0]
		for _, f := range strings.Split(env, ",") {
			s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("CHAOS_SEEDS: %v", err)
			}
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// chaosPlan scripts a seed's failures: an early crash at message receipt, a
// crash just before the first reply leaves, and a crash of the first
// recovery slot (k) so a re-dispatched partition dies again; plus random
// upward drops and delivery delays.
func chaosPlan(seed int64, k int) FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	return FaultPlan{
		Seed: seed,
		Crashes: []Crash{
			{Slot: rng.Intn(k), AtRecv: 1 + rng.Intn(3)},
			{Slot: rng.Intn(k), AtSend: 1},
			{Slot: k, AtRecv: 2},
		},
		DropProb:  0.03,
		DelayProb: 0.2,
		MaxDelay:  2 * time.Millisecond,
	}
}

// chaosOpts are fault-detection timings scaled for tests: beacons every
// 20ms, death after 250ms of silence.
func chaosOpts(k int) Options {
	return Options{
		Workers:           k,
		Seed:              1,
		Core:              core.Options{Tau: 2},
		HeartbeatInterval: 20 * time.Millisecond,
		WorkerTimeout:     250 * time.Millisecond,
	}
}

// TestCrashRecoveryEquivalence is the randomized crash/recovery equivalence
// suite: for every transport and k ∈ {2, 4, 8}, a run with scripted worker
// crashes, random reply drops, and random delivery delays must produce
// byte-identical repairs, dedup, and merged Eq. 6 weights to the
// no-failure run — recovery re-runs only the lost partition's work, and the
// merge is a pure reduce, so nothing downstream can tell a failure
// happened.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos grid is not short")
	}
	dirty, rs := chaosFixture(t)
	seeds := chaosSeeds(t)
	transports := []struct {
		name    string
		factory TransportFactory
	}{
		{"chan", NewChanTransport},
		{"gob", NewGobTransport},
		{"http", NewHTTPTransport},
	}
	for _, tr := range transports {
		for _, k := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/k=%d", tr.name, k), func(t *testing.T) {
				t.Parallel()
				opts := chaosOpts(k)
				opts.Transport = tr.factory
				ref, err := Clean(dirty, rs, opts)
				if err != nil {
					t.Fatalf("no-failure run: %v", err)
				}
				if ref.WorkersLost != 0 {
					t.Fatalf("no-failure run lost %d workers", ref.WorkersLost)
				}
				for _, seed := range seeds {
					fopts := chaosOpts(k)
					fopts.Transport = NewFaultTransport(tr.factory, chaosPlan(seed, k))
					got, err := Clean(dirty, rs, fopts)
					if err != nil {
						t.Fatalf("seed %d: faulted run: %v", seed, err)
					}
					if got.WorkersLost == 0 {
						t.Errorf("seed %d: scripted crashes but WorkersLost = 0", seed)
					}
					if d := got.Repaired.Diff(ref.Repaired); len(d) != 0 {
						t.Errorf("seed %d: repaired output diverged after recovery: %d cells, first %+v", seed, len(d), d[0])
					}
					if got.Clean.Len() != ref.Clean.Len() {
						t.Errorf("seed %d: clean size %d != %d", seed, got.Clean.Len(), ref.Clean.Len())
					} else if d := got.Clean.Diff(ref.Clean); len(d) != 0 {
						t.Errorf("seed %d: deduplicated output diverged: %d cells", seed, len(d))
					}
					// Even on recovered runs the per-worker ClusterTime
					// breakdown must be complete: every partition reports the
					// stage times of the lease that produced its final result.
					if got.ClusterTime() <= 0 {
						t.Errorf("seed %d: ClusterTime = %v on a recovered run", seed, got.ClusterTime())
					}
					for w := range got.WorkerTimes {
						if got.WorkerTimes[w] <= 0 {
							t.Errorf("seed %d: WorkerTimes[%d] = %v, want > 0", seed, w, got.WorkerTimes[w])
						}
						if got.WorkerStageITimes[w] <= 0 || got.WorkerStageIITimes[w] <= 0 {
							t.Errorf("seed %d: worker %d stage breakdown incomplete: I=%v II=%v",
								seed, w, got.WorkerStageITimes[w], got.WorkerStageIITimes[w])
						}
						if got.WorkerTimes[w] != got.WorkerStageITimes[w]+got.WorkerStageIITimes[w] {
							t.Errorf("seed %d: WorkerTimes[%d] != stage I + stage II", seed, w)
						}
					}
					if got.RunID == "" || got.RunID == ref.RunID {
						t.Errorf("seed %d: run IDs not distinct per run: %q vs %q", seed, got.RunID, ref.RunID)
					}
					t.Logf("seed %d: recovered %d lost workers, output byte-identical", seed, got.WorkersLost)
				}
			})
		}
	}
}

// TestRecoveryStreamingSubmit: a worker lost under the streaming ingest
// path (Submit batches, then Run) recovers from the recorded shipments and
// the result matches the unfaulted streaming run.
func TestRecoveryStreamingSubmit(t *testing.T) {
	dirty, rs := chaosFixture(t)
	run := func(factory TransportFactory) *Result {
		opts := chaosOpts(4)
		opts.Transport = factory
		opts.BatchSize = 64
		ex, err := NewExecutor(dirty.Schema, rs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < dirty.Len(); lo += 128 {
			hi := lo + 128
			if hi > dirty.Len() {
				hi = dirty.Len()
			}
			batch := dataset.NewTable(dirty.Schema)
			for _, tp := range dirty.Tuples[lo:hi] {
				batch.MustAppend(tp.Values...)
			}
			if err := ex.Submit(batch); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ex.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(NewChanTransport)
	got := run(NewFaultTransport(NewChanTransport, FaultPlan{
		Seed:    3,
		Crashes: []Crash{{Slot: 1, AtSend: 1}, {Slot: 2, AtRecv: 4}},
	}))
	if got.WorkersLost == 0 {
		t.Error("scripted crashes but WorkersLost = 0")
	}
	if d := got.Repaired.Diff(ref.Repaired); len(d) != 0 {
		t.Errorf("streaming recovery diverged: %d cells, first %+v", len(d), d[0])
	}
}

// TestRecoveryDuringIngest: a worker that dies while its partition is still
// being shipped (its inbox fills, the send deadline trips) is recovered on
// the ship path: the partition is re-leased and the recorded batches
// replayed, and the run's output matches the unfaulted one. BatchSize 2
// forces well over 64 chunks per partition, so the dead worker's inbox
// genuinely fills.
func TestRecoveryDuringIngest(t *testing.T) {
	dirty, rs := chaosFixture(t)
	run := func(factory TransportFactory) *Result {
		opts := chaosOpts(2)
		opts.Transport = factory
		opts.BatchSize = 2
		opts.SendTimeout = 200 * time.Millisecond
		res, err := Clean(dirty, rs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(NewChanTransport)
	got := run(NewFaultTransport(NewChanTransport, FaultPlan{
		Crashes: []Crash{{Slot: 0, AtRecv: 2}},
	}))
	if got.WorkersLost == 0 {
		t.Error("worker died mid-ingest but WorkersLost = 0")
	}
	if d := got.Repaired.Diff(ref.Repaired); len(d) != 0 {
		t.Errorf("ingest-phase recovery diverged: %d cells, first %+v", len(d), d[0])
	}

	// The replacement dying while its replay is still streaming (slot 2 is
	// the first recovery slot for k=2) must spend more budget and land on a
	// third slot, not abort the run.
	again := run(NewFaultTransport(NewChanTransport, FaultPlan{
		Crashes: []Crash{{Slot: 0, AtRecv: 2}, {Slot: 2, AtRecv: 2}},
	}))
	if again.WorkersLost < 2 {
		t.Errorf("replacement died mid-replay but WorkersLost = %d, want ≥ 2", again.WorkersLost)
	}
	if d := again.Repaired.Diff(ref.Repaired); len(d) != 0 {
		t.Errorf("double ingest-phase recovery diverged: %d cells, first %+v", len(d), d[0])
	}
}

// TestRecoveryBudget: a cluster that kills every worker it is handed —
// including every recovery slot — must converge on the budget error rather
// than re-dispatching forever.
func TestRecoveryBudget(t *testing.T) {
	dirty, rs := chaosFixture(t)
	crashes := make([]Crash, 0, 8)
	for slot := 0; slot < 8; slot++ {
		crashes = append(crashes, Crash{Slot: slot, AtRecv: 1})
	}
	opts := chaosOpts(2)
	opts.Transport = NewFaultTransport(NewChanTransport, FaultPlan{Crashes: crashes})
	opts.MaxRecoveries = 3
	_, err := Clean(dirty, rs, opts)
	if err == nil || !strings.Contains(err.Error(), "recovery budget") {
		t.Fatalf("exhausted cluster: err = %v, want recovery budget error", err)
	}
}

// TestRecoveryDisabled: a negative WorkerTimeout restores the old
// block-until-reply behavior — no detection, no recovery — which the
// context watcher still bounds.
func TestRecoveryDisabled(t *testing.T) {
	dirty, rs := chaosFixture(t)
	opts := chaosOpts(2)
	opts.WorkerTimeout = -1
	opts.Transport = NewFaultTransport(NewChanTransport, FaultPlan{
		Crashes: []Crash{{Slot: 0, AtRecv: 1}},
	})
	done := make(chan error, 1)
	ex, err := NewExecutor(dirty.Schema, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Submit(dirty); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := ex.Run()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("run with a dead worker and detection disabled returned: %v", err)
	case <-time.After(600 * time.Millisecond):
	}
	ex.Close()
	if err := <-done; err == nil {
		t.Fatal("closed run returned nil error")
	}
}

// TestHeartbeatsDisabledDisablesDetection: disabling heartbeats without
// explicitly choosing a silence timeout must disable failure detection too —
// a busy worker sends nothing upward mid-stage, so the default 10s timeout
// would misread any long stage as a death. An explicit positive timeout is
// honored (the caller owns sizing it past the longest stage).
func TestHeartbeatsDisabledDisablesDetection(t *testing.T) {
	schema := dataset.MustSchema("A", "B")
	rs := rules.MustParseStrings("FD: A -> B")
	for _, tc := range []struct {
		hb, timeout, want time.Duration
	}{
		{hb: -1, timeout: 0, want: 0},
		{hb: -1, timeout: 30 * time.Second, want: 30 * time.Second},
		{hb: 0, timeout: 0, want: defaultWorkerTimeout},
	} {
		ex, err := NewExecutor(schema, rs, Options{Workers: 2, HeartbeatInterval: tc.hb, WorkerTimeout: tc.timeout})
		if err != nil {
			t.Fatal(err)
		}
		if ex.workerTimeout != tc.want {
			t.Errorf("hb=%v timeout=%v: effective worker timeout %v, want %v", tc.hb, tc.timeout, ex.workerTimeout, tc.want)
		}
		ex.Close()
	}
}

// TestSubmitAfterTransportClose: a transport torn down under a live
// executor fails the next Submit with the transport error instead of
// blocking, and the executor stays failed afterwards.
func TestSubmitAfterTransportClose(t *testing.T) {
	dirty, rs := chaosFixture(t)
	var tr Transport
	opts := chaosOpts(2)
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
	closed  chan struct{}
}

func (t *gatherSignalTransport) CoordinatorRecvDeadline(d time.Duration) (Message, error) {
	select {
	case <-t.entered:
	default:
		close(t.entered)
	}
	return t.Transport.CoordinatorRecvDeadline(d)
}

// TestCleanContextCancelMidGather: cancelling the run's context while the
// coordinator is blocked gathering worker replies aborts promptly with
// context.Canceled — the watcher tears the transport down under the gather
// loop.
func TestCleanContextCancelMidGather(t *testing.T) {
	dirty, rs := chaosFixture(t)
	sig := &gatherSignalTransport{entered: make(chan struct{})}
	opts := chaosOpts(2)
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
