package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// parallelism is P: GOMAXPROCS, core.Options.Parallelism and the executor's
// worker count all take it.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// pinProcess fixes everything about the process that would otherwise differ
// between runs or boxes.
func pinProcess(par int) {
	runtime.GOMAXPROCS(par)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)})))
}

// runConfig is one invocation's plan.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64 // length of the measured section
	trace   bool
	outDir  string
	par     int
	// lanes is how many independent inputs the untraced pass cycles through;
	// setupPasses how many complete set-ups are timed; minPerLane the fewest
	// timed ops every lane gets however short the window; minTraced the
	// fewest traced ops.
	lanes, setupPasses, minPerLane, minTraced int
}

func defaultConfig(w workload, seed int64, seconds float64, trace bool, outDir string) runConfig {
	return runConfig{w: w, seed: seed, seconds: seconds, trace: trace, outDir: outDir,
		par: parallelism(), lanes: w.lanes, setupPasses: 3, minPerLane: floorK, minTraced: 15}
}

// runResult is what a run reports.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	inputSHA  string
	ops       int      // ops in the measured section
	problems  []string // why correct is false
	metrics   metricSet
	info      metricSet // printed for the reader, never part of the contract line
	tracePath string
}

func (r *runResult) fail(format string, a ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// lane is one independent input with its harness. How long an op takes
// depends on which cells the seed happened to corrupt (a few tuples dominate
// fusion), by far more than it depends on the weather of the box; a run
// therefore measures several inputs drawn from its seed and adds them up, so
// that one seed's luck does not pass for a property of the code.
type lane struct {
	in  *inputs
	h   harness
	dir string
	ref opOut // the lane's op 0; every later op must reproduce its digest
}

// laneSeed derives lane j's input seed; neighbouring seeds share no lane.
func laneSeed(seed int64, j int) int64 { return seed*100 + int64(j) }

// session is one run's live state.
type session struct {
	cfg   runConfig
	res   *runResult
	lanes []*lane
}

// setUp performs one complete set-up pass over n lanes: datagen → errgen →
// CSV serialise → rule parse → construct harness state → one cold op, each.
func (s *session) setUp(n int) error {
	if err := os.MkdirAll(s.cfg.outDir, 0o755); err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		in, err := makeInputs(s.cfg.w.spec, laneSeed(s.cfg.seed, j))
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp(s.cfg.outDir, "data-"+s.cfg.w.name+"-")
		if err != nil {
			return err
		}
		l := &lane{in: in, dir: dir}
		s.lanes = append(s.lanes, l)
		if l.h, err = s.cfg.w.newHarness(in, s.cfg.par, dir); err != nil {
			return err
		}
		if l.ref, err = l.h.op(nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *session) tearDown() error {
	var first error
	for _, l := range s.lanes {
		if l.h != nil {
			if err := l.h.close(); err != nil && first == nil {
				first = err
			}
		}
		if err := os.RemoveAll(l.dir); err != nil && first == nil {
			first = err
		}
	}
	s.lanes = nil
	return first
}

// memShare is the share of the measured section's length after which the
// memory phase starts no further pass over the lanes.
const memShare = 0.2

// sample is one measured op.
type sample struct {
	dur            time.Duration
	allocB, allocN float64 // bytes and objects the op allocated
	// memory phase only: the peaks of live and of allocated heap over the
	// op's starting heap
	peakLive, peakObjects float64
	out                   opOut
}

// measure runs one op on a lane with a collection just before it, so no op
// inherits the previous one's garbage, and checks its output against the
// lane's op 0. With heap set it also samples the heap while the op runs.
func (s *session) measure(l *lane, heap bool, f func(h harness) (opOut, error)) sample {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var hs *heapSampler
	if heap {
		hs = startHeapSampler()
	}
	t0 := time.Now()
	o, err := f(l.h)
	sm := sample{dur: time.Since(t0), out: o}
	if heap {
		// The collection above left exactly the starting heap live.
		hs.done()
		sm.peakLive = float64(hs.peakLive) - float64(before.HeapAlloc)
		sm.peakObjects = float64(hs.peakObjects) - float64(before.HeapAlloc)
	}
	runtime.ReadMemStats(&after)
	sm.allocB, sm.allocN = float64(after.TotalAlloc-before.TotalAlloc), float64(after.Mallocs-before.Mallocs)
	s.res.attempted++
	switch {
	case err != nil:
		s.res.failed++
		s.res.fail("op %d: %v", s.res.attempted, err)
	case o.digest != l.ref.digest:
		s.res.failed++
		s.res.fail("op %d: output differs from op 0", s.res.attempted)
	}
	if o.primary > 0 {
		sm.dur = o.primary
	}
	return sm
}

// run executes one workload as the contract describes and reports either the
// end-to-end metrics (trace off) or the per-layer ones (trace on).
func run(cfg runConfig) (*runResult, error) {
	pinProcess(cfg.par)
	res := &runResult{correct: true, metrics: metricSet{}, info: metricSet{}}
	s := &session{cfg: cfg, res: res}
	defer s.tearDown()

	// The traced pass profiles the first lane only: per-layer numbers are
	// read side by side, so they must describe one input.
	passes, lanes := cfg.setupPasses, cfg.lanes
	if cfg.trace {
		passes, lanes = 1, 1
	}
	setups := make([]time.Duration, 0, passes)
	for i := 0; i < passes; i++ {
		// Clearing away the previous pass is not part of setting up.
		if err := s.tearDown(); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := s.setUp(lanes); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	res.attempted = lanes // each lane's op 0, the last pass's cold op
	var f1 float64
	sha := sha256.New()
	for _, l := range s.lanes {
		v, err := l.h.f1(l.ref)
		if err != nil {
			return nil, err
		}
		f1 += v / float64(lanes)
		sha.Write([]byte(l.in.sha))
	}
	res.inputSHA = hex.EncodeToString(sha.Sum(nil))
	if w := cfg.w; cfg.seed == pinnedSeed && !cfg.trace && w.pinSHA != "" {
		if res.inputSHA != w.pinSHA {
			res.fail("input_sha256 %s differs from the pinned %s", res.inputSHA, w.pinSHA)
		}
		if math.Abs(f1-w.pinF1) > 0.001 {
			res.fail("f1 %.6f differs from the pinned %.6f", f1, w.pinF1)
		}
	}

	var total time.Duration
	for _, d := range setups {
		total += d
	}
	res.info.set("bench.phase_setup_s", total.Seconds(), "s")
	var err error
	var tr *tracer
	t0 := time.Now()
	if cfg.trace {
		tr, err = s.tracedPass()
	} else {
		err = s.endToEnd(setups, f1)
	}
	if err != nil {
		return nil, err
	}
	res.info.set("bench.phase_measure_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	defer func() { res.info.set("bench.phase_verify_s", time.Since(t0).Seconds(), "s") }()
	for j, l := range s.lanes {
		// The slow checks (a server restart) run on the first lane only.
		if err := l.h.verify(l.ref, j == 0); err != nil {
			res.fail("verify lane %d: %v", j, err)
		}
	}
	if cfg.trace {
		// Layer probes run last: they restart servers and reuse what verify
		// measured.
		if err := s.lanes[0].h.layerMetrics(res.metrics, tr); err != nil {
			return nil, err
		}
	}
	return res, s.tearDown()
}

// endToEnd is the untraced pass: the timed section, then the memory phase,
// both cycling through the lanes.
func (s *session) endToEnd(setups []time.Duration, f1 float64) error {
	cfg, res, m := s.cfg, s.res, s.res.metrics
	k := len(s.lanes)
	op := func(h harness) (opOut, error) { return h.op(nil) }

	allocB, allocN, opsOf := make([]float64, k), make([]float64, k), make([]float64, k)
	var all []time.Duration
	cpu0 := cpuTime()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < k*cfg.minPerLane || time.Now().Before(deadline); i++ {
		sm := s.measure(s.lanes[i%k], false, op)
		all = append(all, sm.dur)
		allocB[i%k] += sm.allocB
		allocN[i%k] += sm.allocN
		opsOf[i%k]++
	}
	runtime.ReadMemStats(&gc1)
	cpu := cpuTime() - cpu0
	res.ops = len(all)

	// Memory phase: the same ops, untimed, with the heap sampled while they
	// run. The collector runs at 10 % headroom so that it completes a cycle
	// every few MiB of growth and the live reading follows the op closely.
	// How full the heap gets differs from op to op even on one input (which
	// blocks are in flight together is up to the scheduler), so the phase
	// makes whole passes over the lanes until memShare of the measured
	// section's length has gone and reports the mean over all its ops.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	var peak, peakObj, sampled float64
	for t0 := time.Now(); sampled == 0 || time.Since(t0).Seconds() < memShare*cfg.seconds; {
		for _, l := range s.lanes {
			sm := s.measure(l, true, op)
			peak += sm.peakLive
			peakObj += sm.peakObjects
			sampled++
		}
	}
	peak, peakObj = peak/sampled, peakObj/sampled

	// The run reports the lanes added up: one quiet pass over all of them,
	// and every lane's own per-op means.
	floor := passFloor(all, k).Seconds()
	var units, bytes, objs float64
	for j, l := range s.lanes {
		units += l.h.units()
		bytes += allocB[j] / opsOf[j] / float64(k)
		objs += allocN[j] / opsOf[j] / float64(k)
	}
	m.set("setup_s", floorTime(setups, 1).Seconds(), "s")
	m.set("tuples_per_s", units/floor, "1/s")
	m.set("f1", f1, "ratio")
	m.set("alloc_mib_per_op", bytes/mib, "MiB")
	m.set("kallocs_per_op", objs/1000, "k")
	m.set("peak_heap_mib", peak/mib, "MiB")

	ops := float64(len(all))
	res.info.set("bench.peak_heap_objects_mib", peakObj/mib, "MiB")
	res.info.set("bench.op_floor_ms", 1000*floor/float64(k), "ms")
	s.opInfo(res.info, all, ms(cpu)/ops, gcCycles(gc0, gc1)/ops)
	return nil
}

// gcCycles is the number of collections the runtime started on its own
// between two readings (the harness's own forced ones are left out).
func gcCycles(before, after runtime.MemStats) float64 {
	return float64(after.NumGC-before.NumGC) - float64(after.NumForcedGC-before.NumForcedGC)
}

// opInfo reports the estimators that do not repeat within a tenth on a noisy
// box; they inform, they never gate. The per-layer catalogue carries p50 and
// p95 (m is the catalogue's set in a traced run); the others are only printed,
// for the A/A tool's estimator evidence.
func (s *session) opInfo(m metricSet, durs []time.Duration, cpuMSPerOp, gcPerOp float64) {
	xs := durationsMS(durs)
	s.res.info.set("bench.op_min_ms", percentile(xs, 0), "ms")
	s.res.info.set("bench.op_p05_ms", percentile(xs, 5), "ms")
	s.res.info.set("bench.op_mean_ms", mean(xs), "ms")
	s.res.info.set("bench.op_p90_ms", percentile(xs, 90), "ms")
	m.set("bench.op_p50_ms", percentile(xs, 50), "ms")
	m.set("bench.op_p95_ms", percentile(xs, 95), "ms")
	m.set("bench.cpu_ms_per_op", cpuMSPerOp, "ms")
	m.set("bench.gc_cycles_per_op", gcPerOp, "count")
}

// tracedPass interleaves the traced op with the untraced one (and, where the
// traced op takes a different path through the product, that path untraced
// too), so all of them see the same weather. The untraced ops only supply
// the denominators of ratios, so they run on every other iteration.
func (s *session) tracedPass() (*tracer, error) {
	cfg, res, m := s.cfg, s.res, s.res.metrics
	tr := newTracer()
	// tracedPaired holds the traced ops of the iterations that also ran the
	// untraced ones: floors compare fairly only over equal sample counts.
	var plain, stagedPlain, traced, tracedPaired []time.Duration
	var counts []map[string]float64
	l := s.lanes[0]
	staged := l.h.staged()

	obs0 := obsSnapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var cpu time.Duration
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; len(traced) < cfg.minTraced || time.Now().Before(deadline); i++ {
		sm := s.measure(l, false, func(h harness) (opOut, error) { return h.tracedOp(tr) })
		traced = append(traced, sm.dur)
		counts = append(counts, sm.out.counts)
		if i%2 == 1 {
			continue
		}
		tracedPaired = append(tracedPaired, sm.dur)
		c0 := cpuTime()
		sm = s.measure(l, false, func(h harness) (opOut, error) { return h.op(nil) })
		cpu += cpuTime() - c0
		plain = append(plain, sm.dur)
		if staged {
			sm = s.measure(l, false, func(h harness) (opOut, error) { return h.tracedOp(nil) })
			stagedPlain = append(stagedPlain, sm.dur)
		}
	}
	runtime.ReadMemStats(&after)
	obs1 := obsSnapshot()
	res.ops = len(traced)
	opsRun := float64(len(traced) + len(plain) + len(stagedPlain))

	// Span times: the mean over the quietest traced ops, per call.
	all := profiles(tr.spans)
	fast := fastestProfiles(all, traceK)
	names := map[string]bool{}
	for _, p := range all {
		for name := range p.wall {
			names[name] = true
		}
	}
	for name := range names {
		if name != "op" {
			m.set(name+"_ms", ms(meanPerCall(fast, name)), "ms")
		}
	}
	// Counters of the same quiet ops. Reported timings are averaged; counts
	// must not differ between ops at all.
	fastOps := map[int]bool{}
	for _, p := range fast {
		fastOps[p.op-1] = true
	}
	sums, n := map[string]float64{}, 0.0
	for i, c := range counts {
		if !fastOps[i] {
			continue
		}
		n++
		for k, v := range c {
			sums[k] += v
		}
	}
	for k, v := range sums {
		m.set(k, v/n, unitOf(k))
	}
	for k, v := range counts[0] {
		if strings.HasSuffix(k, "_ms") {
			continue
		}
		for i, c := range counts[1:] {
			if c[k] != v {
				res.fail("counter %s differs between traced op 1 (%v) and op %d (%v)", k, v, i+2, c[k])
				break
			}
		}
	}

	// Registry deltas over every op of the loop.
	delta := func(key string) (float64, bool) {
		v, ok := obs1[key]
		return v - obs0[key], ok
	}
	hits, okH := delta("mlnclean_mem_pool_hits_total")
	misses, okM := delta("mlnclean_mem_pool_misses_total")
	if okH && okM && hits+misses > 0 {
		m.set("distance.pool_hit_ratio", hits/(hits+misses), "ratio")
	}
	if sent, ok := delta("mlnclean_transport_send_bytes_total"); ok && sent > 0 {
		m.set("distributed.wire_mib_per_op", sent/opsRun/mib, "MiB")
	}

	// Mutation latencies over every traced episode, not only the quiet ones.
	var muts []float64
	for _, sp := range tr.spans {
		if sp.Name == "server.put" || sp.Name == "server.delete" {
			muts = append(muts, float64(sp.End-sp.Start)/1e6)
		}
	}
	if len(muts) > 0 {
		m.set("server.mutation_p50_ms", percentile(muts, 50), "ms")
		m.set("server.mutation_p95_ms", percentile(muts, 95), "ms")
	}

	m.set("bench.op_floor_ms", ms(floorTime(plain, floorK)), "ms")
	s.opInfo(m, plain, ms(cpu)/float64(len(plain)), gcCycles(before, after)/opsRun)

	m.set("trace.coverage_ratio", coverage(fast, "op"), "ratio")
	base := plain
	if staged {
		base = stagedPlain
		m.set("trace.staged_vs_fused_ratio", float64(floorTime(stagedPlain, floorK))/float64(floorTime(plain, floorK)), "ratio")
	}
	m.set("trace.overhead_ratio", float64(floorTime(tracedPaired, floorK))/float64(floorTime(base, floorK)), "ratio")
	if c := m.value("trace.coverage_ratio"); c < 0.95 {
		res.fail("trace.coverage_ratio %.3f is below 0.95", c)
	}

	path, err := tr.write(cfg.outDir, cfg.w.name)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.tracePath = path
	return tr, nil
}
