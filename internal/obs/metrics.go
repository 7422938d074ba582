// Package obs is the zero-dependency observability substrate: a named
// metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms with quantile estimation) exposed in Prometheus text format,
// plus the structured-logging and run-correlation helpers the daemons share.
//
// Design constraints, in order:
//
//   - Observation must never perturb the observed pipeline: every
//     instrument is a few atomic operations, instruments are get-or-create
//     (hot paths hold *Counter/*Histogram pointers, no map lookups per
//     event), and nothing allocates after registration. The golden parity
//     suite runs with instrumentation enabled and stays byte-identical.
//   - No dependencies beyond the standard library — the container bakes in
//     no Prometheus client, and the exposition format is simple enough to
//     emit directly.
//   - One process-wide default registry: the pipeline packages (core,
//     index, plan, distributed, wal, server) register their families at
//     package init, so a scrape sees every registered series from the first
//     request on, zero-valued until traffic arrives. CI's metrics smoke
//     leans on this: "registered" is a static property, "moving" a runtime
//     one, and both are checked.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a series. Series sharing a
// metric name but differing in labels are distinct instruments grouped
// under one HELP/TYPE header on exposition.
type Label struct{ Key, Value string }

// L is shorthand for a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. All methods are safe for
// concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// gaugeFunc samples its callback at scrape time. The callback is swappable
// (latest registration wins) so a re-created owner — a test server over the
// same process-wide registry — re-binds the series to its live state.
type gaugeFunc struct{ fn atomic.Value }

// Histogram is a fixed-bucket distribution: per-bucket atomic counts plus a
// running sum and count. Buckets are cumulative upper bounds in ascending
// order; an implicit +Inf bucket catches the rest. All methods are safe for
// concurrent use and allocation-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value (seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket holding the target rank — the standard
// histogram_quantile estimate. The estimate is bounded by the bucket's
// edges: it is exact only up to bucket resolution. An empty histogram
// returns 0; ranks landing in the +Inf bucket return the highest finite
// bound (the estimate cannot exceed what the buckets resolve).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1] // +Inf bucket: clamp
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (h.bounds[i]-lo)*(rank-cum)/n
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets are latency buckets from 1µs to 60s, roughly ×2.5 per step —
// wide enough to hold both a sub-millisecond block clean and a multi-second
// end-to-end run in one histogram shape.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// SizeBuckets are byte-size buckets from 64 B to 16 MiB, ×4 per step (for
// record and message sizes).
var SizeBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}

// metricKind tags a family's exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered instrument under a family.
type series struct {
	labels string // rendered {k="v",...} suffix, "" when unlabeled
	c      *Counter
	g      *Gauge
	gf     *gaugeFunc
	h      *Histogram
}

// family groups the series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	order  []string // label-suffix registration order (sorted at expose)
	series map[string]*series
}

// Registry is a named collection of metric families. All methods are safe
// for concurrent use; instruments are get-or-create, so callers may
// re-request a series by name and receive the already-registered instrument.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every pipeline package registers
// into; /metrics serves it.
func Default() *Registry { return defaultRegistry }

// renderLabels renders a sorted, escaped {k="v",...} suffix ("" when empty).
func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	sorted := append([]Label(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the series for (name, labels), creating family and series on
// first sight. Registering one name under two kinds is a programming error
// and panics. init builds the series' instrument if it has none yet; it runs
// under the registry lock, because two goroutines may register the same
// series at once (servers started side by side bind the same gauges).
func (r *Registry) get(name, help string, kind metricKind, ls []Label, init func(*series)) *series {
	suffix := renderLabels(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	s := f.series[suffix]
	if s == nil {
		s = &series{labels: suffix}
		f.series[suffix] = s
		f.order = append(f.order, suffix)
	}
	init(s)
	return s
}

// Counter returns the named counter, registering it on first sight.
func (r *Registry) Counter(name, help string, ls ...Label) *Counter {
	return r.get(name, help, kindCounter, ls, func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
	}).c
}

// Gauge returns the named gauge, registering it on first sight.
func (r *Registry) Gauge(name, help string, ls ...Label) *Gauge {
	return r.get(name, help, kindGauge, ls, func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
	}).g
}

// GaugeFunc registers a gauge sampled from fn at scrape time. Re-registering
// the same series replaces the callback (latest owner wins), so a restarted
// subsystem re-binds the series to its live state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, ls ...Label) {
	r.get(name, help, kindGauge, ls, func(s *series) {
		if s.gf == nil {
			s.gf = &gaugeFunc{}
		}
	}).gf.fn.Store(fn)
}

// Histogram returns the named histogram over the given cumulative upper
// bounds (ascending; DefBuckets for latencies), registering it on first
// sight. A later request with different buckets returns the existing
// instrument unchanged.
func (r *Registry) Histogram(name, help string, buckets []float64, ls ...Label) *Histogram {
	return r.get(name, help, kindHistogram, ls, func(s *series) {
		if s.h != nil {
			return
		}
		bounds := append([]float64(nil), buckets...)
		if len(bounds) == 0 {
			bounds = append(bounds, DefBuckets...)
		}
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}).h
}

// fmtFloat renders a sample value the way Prometheus text format expects.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes the registry in Prometheus text exposition format:
// families sorted by name, series sorted by label suffix, one HELP/TYPE
// header per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type flatSeries struct {
		labels string
		s      *series
	}
	type flatFamily struct {
		name, help string
		kind       metricKind
		series     []flatSeries
	}
	flat := make([]flatFamily, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		ff := flatFamily{name: name, help: f.help, kind: f.kind}
		suffixes := append([]string(nil), f.order...)
		sort.Strings(suffixes)
		for _, suffix := range suffixes {
			ff.series = append(ff.series, flatSeries{suffix, f.series[suffix]})
		}
		flat = append(flat, ff)
	}
	r.mu.Unlock()

	for _, f := range flat {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, fs := range f.series {
			if err := writeSeries(w, f.name, fs.labels, fs.s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name, labels string, s *series) error {
	switch {
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(float64(s.c.Value())))
		return err
	case s.gf != nil:
		v := 0.0
		if fn, ok := s.gf.fn.Load().(func() float64); ok && fn != nil {
			v = fn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(v))
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(float64(s.g.Value())))
		return err
	case s.h != nil:
		h := s.h
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			if err := writeBucket(w, name, labels, fmtFloat(bound), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if err := writeBucket(w, name, labels, "+Inf", cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, fmtFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
		return err
	}
	return nil
}

// writeBucket renders one cumulative histogram bucket, splicing le into the
// series' label set.
func writeBucket(w io.Writer, name, labels, le string, cum int64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		return err
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels[1:len(labels)-1], le, cum)
	return err
}

// Handler serves the registry in Prometheus text format (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Snapshot is one series' state in a JSON-friendly shape; the repository
// benchmark reads its per-layer counters and histogram sums from it.
type Snapshot struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Type   string `json:"type"`
	// Value is the counter or gauge value.
	Value float64 `json:"value,omitempty"`
	// Count/Sum/P50/P90/P99 summarize a histogram.
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot captures every registered series, sorted by (name, labels).
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	var out []Snapshot
	for name, f := range r.families {
		for _, s := range f.series {
			snap := Snapshot{Name: name, Labels: s.labels, Type: f.kind.String()}
			switch {
			case s.c != nil:
				snap.Value = float64(s.c.Value())
			case s.gf != nil:
				if fn, ok := s.gf.fn.Load().(func() float64); ok && fn != nil {
					snap.Value = fn()
				}
			case s.g != nil:
				snap.Value = float64(s.g.Value())
			case s.h != nil:
				snap.Count = s.h.Count()
				snap.Sum = s.h.Sum()
				snap.P50 = s.h.Quantile(0.50)
				snap.P90 = s.h.Quantile(0.90)
				snap.P99 = s.h.Quantile(0.99)
			}
			out = append(out, snap)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}
