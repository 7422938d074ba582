package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestFloorTime(t *testing.T) {
	ds := []time.Duration{90, 10, 50, 30, 20, 70, 40}
	if got := floorTime(ds, 5); got != 30 { // mean of 10 20 30 40 50
		t.Errorf("floorTime of 5 = %v, want 30", got)
	}
	if got := floorTime(ds[:2], 5); got != 50 { // fewer than k: all of them
		t.Errorf("floorTime of 2 values = %v, want 50", got)
	}
	if got := floorTime(nil, 5); got != 0 {
		t.Errorf("floorTime of nothing = %v, want 0", got)
	}
	if ds[0] != 90 {
		t.Error("floorTime reordered its input")
	}
}

func TestPassFloor(t *testing.T) {
	// Two lanes costing 100 and 300; the second pass ran in bad weather (x2)
	// and one op of the third caught a spike.
	ds := []time.Duration{100, 300, 200, 600, 100, 300, 100, 450, 100, 300}
	if got := passFloor(ds, 2); got != 400 {
		t.Errorf("passFloor = %v, want 400", got)
	}
	if got, want := passFloor(ds[:3], 1), floorTime(ds[:3], floorK); got != want {
		t.Errorf("passFloor of one lane = %v, want the plain floor %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins the values Python's
// statistics.quantiles(xs, n=4) returns, since the driver uses that.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 4, 8, 2, 10, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32})
	if q1 != 1.75 || q3 != 20 {
		t.Errorf("quartiles = %v, %v; Python gives 1.75, 20", q1, q3)
	}
	if got, want := spread(xs), 5.5/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", Start: 0, End: 100, Parent: -1, Op: 1},
		{ID: 1, Name: "a", Start: 10, End: 40, Parent: 0, Op: 1},
		{ID: 2, Name: "b", Start: 30, End: 60, Parent: 0, Op: 1}, // overlaps a by 10
		{ID: 3, Name: "c", Start: 35, End: 50, Parent: 2, Op: 1},
	}
	want := []int64{50, 30, 15, 15} // op: 100 minus [10,60); b: 30 minus c's 15
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	ps := profiles(spans)
	if len(ps) != 1 || ps[0].total != 100 {
		t.Fatalf("profiles = %+v, want one op of total 100", ps)
	}
	if got := coverage(ps, "op"); math.Abs(got-0.60) > 1e-9 {
		t.Errorf("coverage = %v, want 0.60", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	none.end(none.begin("x")) // a nil tracer records nothing and does not panic

	tr := newTracer()
	root := tr.beginOp("op")
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	c := tr.begin("c")
	tr.end(c)
	tr.end(root)
	parents := []int{-1, root, a, root}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Op != 1 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d in op 1", i, s, parents[i])
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(20)
		a, err := makeInputs(w.spec, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := makeInputs(w.spec, 7)
		c, _ := makeInputs(w.spec, 8)
		if a.sha != b.sha {
			t.Errorf("%s: the same seed gave input_sha256 %s and %s", w.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 7 and 8 gave the same input_sha256", w.name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestRunsMeetContract runs every workload at test scale in both modes and
// checks the report against BENCHMARK.json.
func TestRunsMeetContract(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	checkDefs(t, "end_to_end", sp.EndToEnd, endToEndDefs)
	checkDefs(t, "per_layer", sp.PerLayer, perLayerDefs)

	for _, w := range workloads {
		w = w.scaled(20)
		for _, trace := range []bool{false, true} {
			cfg := defaultConfig(w, 7, 0.05, trace, t.TempDir())
			cfg.lanes, cfg.setupPasses, cfg.minPerLane, cfg.minTraced = 2, 2, 1, 2
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct || res.failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d: %v", w.name, trace, res.correct, res.failed, res.problems)
			}
			var out bytes.Buffer
			if err := res.report(&out, cfg); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s: last line does not parse: %v", w.name, err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := raw[key]; !ok {
					t.Errorf("%s: last line lacks %q", w.name, key)
				}
			}
			if len(raw) != 4 {
				t.Errorf("%s: last line has %d keys, want 4", w.name, len(raw))
			}
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if line.Attempted < 1 {
				t.Errorf("%s: attempted = %d", w.name, line.Attempted)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, got.Value)
				}
			}
			// Every name the run printed, contracted or not.
			for i, set := range []metricSet{res.metrics, res.info} {
				for _, name := range set.names() {
					if !metricName.MatchString(name) || len(name) > 64 {
						t.Errorf("%s: metric name %q is not a contract name", w.name, name)
					}
					if d, ok := layerDef(name); trace && i == 0 && (!ok || d.unit != set[name].Unit) {
						t.Errorf("%s: traced metric %s (%s) is not in the per-layer catalogue", w.name, name, set[name].Unit)
					}
				}
			}
			if trace {
				if c := res.metrics.value("trace.coverage_ratio"); c < 0.95 {
					t.Errorf("%s: trace.coverage_ratio = %v", w.name, c)
				}
				if res.metrics.value("trace.overhead_ratio") <= 0 {
					t.Errorf("%s: trace.overhead_ratio not reported", w.name)
				}
			}
		}
	}
}

func checkDefs(t *testing.T, what string, got []specMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		return
	}
	for i, d := range want {
		g := got[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", what, i, g, d)
		}
	}
}
