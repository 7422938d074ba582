package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one measured number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

func (m metricSet) value(name string) float64 { return m[name].Value }

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metricDef describes a metric the benchmark is contracted to report.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" | "lower"
}

// endToEndDefs are the six metrics a user of the system would see. Bounds
// live in BENCHMARK.json only.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "tuples_per_s", unit: "1/s", better: "higher"},
	{name: "f1", unit: "ratio", better: "higher"},
	{name: "alloc_mib_per_op", unit: "MiB", better: "lower"},
	{name: "kallocs_per_op", unit: "k", better: "lower"},
	{name: "peak_heap_mib", unit: "MiB", better: "lower"},
}

// perLayerDefs is every per-layer metric of every workload; a traced run
// reports all of them, with 0 for the ones that belong to other workloads or
// whose source the product no longer exposes. README.md says, for each, which
// end-to-end metric it should move.
var perLayerDefs = []metricDef{
	// solo-hai, solo-car: the staged path, one span per layer.
	{"dataset.ingest_ms", "ms", "lower"},
	{"index.build_ms", "ms", "lower"},
	{"core.agp_ms", "ms", "lower"},
	{"core.learn_ms", "ms", "lower"},
	{"core.rsc_ms", "ms", "lower"},
	{"core.fscr_ms", "ms", "lower"},
	{"core.dedup_ms", "ms", "lower"},
	{"dataset.write_ms", "ms", "lower"},
	{"core.clean_fused_ms", "ms", "lower"},
	{"index.groups", "count", "lower"},
	{"index.pieces", "count", "lower"},
	{"plan.full_scan_rules", "count", "lower"},
	{"core.agp_abnormal_groups", "count", "lower"},
	{"mln.learn_iterations", "count", "lower"},
	{"core.rsc_repairs", "count", "higher"},
	{"core.fscr_cell_changes", "count", "higher"},
	{"core.fscr_failures", "count", "lower"},
	{"core.duplicates_removed", "count", "higher"},
	{"distance.pair_ns", "ns", "lower"},
	{"distance.pair_memo_ns", "ns", "lower"},
	{"distance.pool_hit_ratio", "ratio", "higher"},
	// every workload: the op itself, and the trace's own quality.
	{"bench.op_floor_ms", "ms", "lower"},
	{"bench.op_p50_ms", "ms", "lower"},
	{"bench.op_p95_ms", "ms", "lower"},
	{"bench.cpu_ms_per_op", "ms", "lower"},
	{"bench.gc_cycles_per_op", "count", "lower"},
	{"trace.coverage_ratio", "ratio", "higher"},
	{"trace.staged_vs_fused_ratio", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	// dist-tpch.
	{"distributed.clean_stream_ms", "ms", "lower"},
	{"distributed.partition_ms", "ms", "lower"},
	{"distributed.worker_stage1_ms", "ms", "lower"},
	{"distributed.worker_stage2_ms", "ms", "lower"},
	{"distributed.gather_ms", "ms", "lower"},
	{"distributed.wall_ms", "ms", "lower"},
	{"distributed.op_chan_ms", "ms", "lower"},
	{"distributed.op_gob_ms", "ms", "lower"},
	{"distributed.op_http_ms", "ms", "lower"},
	{"distributed.serialize_ms", "ms", "lower"},
	{"distributed.http_ms", "ms", "lower"},
	{"distributed.wire_mib_per_op", "MiB", "lower"},
	{"distributed.part_skew", "ratio", "lower"},
	{"distributed.workers_lost", "count", "lower"},
	{"distributed.vs_solo_ratio", "ratio", "lower"},
	// serve-mutate.
	{"server.new_ms", "ms", "lower"},
	{"server.create_ms", "ms", "lower"},
	{"server.upload_ms", "ms", "lower"},
	{"server.clean_ms", "ms", "lower"},
	{"server.session_ready_ms", "ms", "lower"},
	{"server.result_ms", "ms", "lower"},
	{"server.repairs_ms", "ms", "lower"},
	{"server.close_ms", "ms", "lower"},
	{"server.mutations_ms", "ms", "lower"},
	{"server.put_ms", "ms", "lower"},
	{"server.delete_ms", "ms", "lower"},
	{"server.mutation_p50_ms", "ms", "lower"},
	{"server.mutation_p95_ms", "ms", "lower"},
	{"core.delta_load_ms", "ms", "lower"},
	{"core.delta_apply_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"core.full_reclean_ms", "ms", "lower"},
	{"core.delta_speedup_x", "x", "higher"},
	{"core.delta_dirty_blocks_per_mut", "count", "lower"},
	{"core.delta_reused_blocks_per_mut", "count", "higher"},
	{"core.delta_refused_tuples_per_mut", "count", "lower"},
	{"wal.append_ms", "ms", "lower"},
	{"wal.fsyncs_per_mut", "count", "lower"},
	{"wal.bytes_per_mut", "B", "lower"},
	{"wal.compactions", "count", "lower"},
	{"server.heap_kib_per_version", "KiB", "lower"},
	{"server.restart_recover_ms", "ms", "lower"},
}

// layerDef looks a per-layer metric up in the catalogue.
func layerDef(name string) (metricDef, bool) {
	for _, d := range perLayerDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// unitOf is the unit of a counter an op reports under a per-layer name.
func unitOf(name string) string {
	if d, ok := layerDef(name); ok {
		return d.unit
	}
	return "count"
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contract builds the line: exactly the end-to-end metrics with tracing off,
// exactly the per-layer ones with it on.
func (r *runResult) contract(trace bool) contractLine {
	defs := endToEndDefs
	if trace {
		defs = perLayerDefs
	}
	line := contractLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		mt, ok := r.metrics[d.name]
		if !ok {
			mt = metric{Unit: d.unit}
		}
		line.Metrics[d.name] = mt
	}
	return line
}

// report prints every metric by name and unit for a reader, then the
// contract's JSON object as the last line.
func (r *runResult) report(w io.Writer, cfg runConfig) error {
	fmt.Fprintf(w, "workload      %s\n", cfg.w.name)
	fmt.Fprintf(w, "seed          %d\n", cfg.seed)
	fmt.Fprintf(w, "parallelism   %d\n", cfg.par)
	fmt.Fprintf(w, "input_sha256  %s\n", r.inputSHA)
	fmt.Fprintf(w, "ops           %d measured, %d attempted, %d failed\n", r.ops, r.attempted, r.failed)
	if r.tracePath != "" {
		fmt.Fprintf(w, "trace         %s\n", r.tracePath)
	}
	for _, set := range []metricSet{r.metrics, r.info} {
		for _, name := range set.names() {
			mt := set[name]
			fmt.Fprintf(w, "%-36s %16.6f %s\n", name, mt.Value, mt.Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "PROBLEM       %s\n", strings.ReplaceAll(p, "\n", " "))
	}
	b, err := json.Marshal(r.contract(cfg.trace))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
