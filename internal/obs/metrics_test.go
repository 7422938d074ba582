package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives a counter and a histogram from many
// goroutines; run under -race it proves the instruments are data-race free,
// and the totals prove no increment is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Re-request instruments by name from every goroutine, all at
			// once, to exercise get-or-create under contention: the first
			// registration of a series must build its instrument exactly once.
			<-start
			c := r.Counter("hammer_total", "hammered events")
			h := r.Histogram("hammer_seconds", "latencies", DefBuckets)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000.0)
			}
		}(w)
	}
	close(start)
	wg.Wait()

	if got := r.Counter("hammer_total", "").Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: got %d want %d", got, workers*perWorker)
	}
	h := r.Histogram("hammer_seconds", "", DefBuckets)
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram lost observations: got %d want %d", got, workers*perWorker)
	}
	// Sum of 0,1,...,99 ms repeated: per worker, 20 full cycles of
	// (0+...+99)/1000 = 4.95.
	want := float64(workers) * perWorker / 100 * 4.95
	if got := h.Sum(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("histogram sum drifted: got %g want %g", got, want)
	}
}

// TestPrometheusExpositionGolden locks the exposition format: header lines,
// label rendering and ordering, cumulative buckets, integer formatting.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.", L("route", "clean"), L("code", "2xx")).Add(3)
	r.Counter("app_requests_total", "Requests served.", L("route", "clean"), L("code", "5xx")).Inc()
	h := r.Histogram("app_clean_seconds", "Clean latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_clean_seconds Clean latency.
# TYPE app_clean_seconds histogram
app_clean_seconds_bucket{le="0.1"} 1
app_clean_seconds_bucket{le="1"} 3
app_clean_seconds_bucket{le="10"} 3
app_clean_seconds_bucket{le="+Inf"} 4
app_clean_seconds_sum 51.05
app_clean_seconds_count 4
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{code="2xx",route="clean"} 3
app_requests_total{code="5xx",route="clean"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabeledHistogramExposition checks the le label is spliced into an
// existing label set, not appended after the closing brace.
func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("stage_seconds", "", []float64{1}, L("stage", "agp")).Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`stage_seconds_bucket{stage="agp",le="1"} 1`,
		`stage_seconds_bucket{stage="agp",le="+Inf"} 1`,
		`stage_seconds_sum{stage="agp"} 0.5`,
		`stage_seconds_count{stage="agp"} 1`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestKindMismatchPanics locks in that registering one name under two kinds
// is a loud programming error, not silent aliasing.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Histogram("dual_total", "", DefBuckets)
}

// TestSnapshotShape checks the JSON dump benchrunner embeds.
func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "").Add(7)
	h := r.Histogram("snap_seconds", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)

	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	// Sorted by name: snap_seconds before snap_total.
	if snaps[0].Name != "snap_seconds" || snaps[0].Type != "histogram" {
		t.Fatalf("unexpected first snapshot: %+v", snaps[0])
	}
	if snaps[0].Count != 2 || snaps[0].Sum != 5.5 {
		t.Fatalf("histogram snapshot wrong: %+v", snaps[0])
	}
	if snaps[1].Name != "snap_total" || snaps[1].Value != 7 {
		t.Fatalf("counter snapshot wrong: %+v", snaps[1])
	}
	if _, err := json.Marshal(snaps); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
}

// TestObserveSince sanity-checks the time helpers land in plausible buckets.
func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("since_seconds", "", DefBuckets)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	h.ObserveDuration(20 * time.Millisecond)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if s := h.Sum(); s < 0.025 || s > 1 {
		t.Fatalf("sum = %g, want roughly 0.03", s)
	}
}

// TestNewRunID checks shape and uniqueness.
func TestNewRunID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRunID()
		if len(id) != 16 {
			t.Fatalf("run ID %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate run ID %q", id)
		}
		seen[id] = true
	}
}

// TestNewLogger covers format/level plumbing and the typo-surfacing errors.
func TestNewLogger(t *testing.T) {
	var b strings.Builder
	lg, err := NewLogger(&b, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", "run", "abc123")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info line leaked through warn level: %s", out)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &doc); err != nil {
		t.Fatalf("json log line not parseable: %v: %s", err, out)
	}
	if doc["run"] != "abc123" || doc["msg"] != "shown" {
		t.Errorf("unexpected log doc: %v", doc)
	}

	if _, err := NewLogger(&b, "yaml", "info"); err == nil {
		t.Error("expected error for unknown format")
	}
	if _, err := NewLogger(&b, "text", "loud"); err == nil {
		t.Error("expected error for unknown level")
	}
	lg2, err := NewLogger(&b, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}
	if !lg2.Enabled(context.Background(), slog.LevelDebug) {
		t.Error("debug level not enabled")
	}
}
