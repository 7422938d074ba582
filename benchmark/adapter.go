package main

// adapter.go is the benchmark's only seam into the product: every import of
// mlnclean/internal/... lives in this file, and README.md lists the exact
// functions and option fields pinned here. It deliberately uses nothing that
// ROADMAP item 2 may delete (internal/tstore, Options.Materialize,
// Options.DisablePlanner, the materialize/disable_planner create fields), so
// simplicity changes can land without touching the benchmark.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/distributed"
	"mlnclean/internal/errgen"
	"mlnclean/internal/eval"
	"mlnclean/internal/index"
	"mlnclean/internal/obs"
	"mlnclean/internal/rules"
	"mlnclean/internal/server"
	"mlnclean/internal/wal"
)

// ---------------------------------------------------------------- inputs

// inputs is everything a workload's ops consume, generated from the seed.
type inputs struct {
	spec      inputSpec
	seed      int64
	truth     *dataset.Table
	dirty     *dataset.Table
	errors    []errgen.Error
	csv       []byte // the dirty table as the CSV document an op ingests
	rulesText string
	rules     []*rules.Rule
	sha       string // SHA-256 over csv and rulesText
}

// makeInputs runs datagen → errgen → CSV serialise → rule parse.
func makeInputs(sp inputSpec, seed int64) (*inputs, error) {
	var (
		truth *dataset.Table
		rs    []*rules.Rule
		err   error
	)
	switch sp.Dataset {
	case "hai":
		truth, rs, err = datagen.HAI(datagen.HAIConfig{Providers: sp.Providers, Measures: sp.Measures, Seed: seed})
	case "car":
		truth, rs, err = datagen.CAR(datagen.CARConfig{Rows: sp.Rows, Seed: seed})
	case "tpch":
		truth, rs, err = datagen.TPCH(datagen.TPCHConfig{Customers: sp.Customers, Rows: sp.Rows, Seed: seed})
	default:
		err = fmt.Errorf("unknown dataset %q", sp.Dataset)
	}
	if err != nil {
		return nil, fmt.Errorf("datagen %s: %w", sp.Dataset, err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: sp.Rate, ReplacementRatio: 0.5, Seed: seed*1_000_003 + 17})
	if err != nil {
		return nil, fmt.Errorf("errgen %s: %w", sp.Dataset, err)
	}
	var buf bytes.Buffer
	if err := inj.Dirty.WriteCSV(&buf); err != nil {
		return nil, err
	}
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = r.Canonical()
	}
	text := strings.Join(lines, "\n") + "\n"
	parsed, err := rules.ParseList(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("rule parse: %w", err)
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write([]byte{0})
	h.Write([]byte(text))
	return &inputs{
		spec: sp, seed: seed, truth: truth, dirty: inj.Dirty, errors: inj.Errors,
		csv: buf.Bytes(), rulesText: text, rules: parsed,
		sha: hex.EncodeToString(h.Sum(nil)),
	}, nil
}

func (in *inputs) coreOptions(par int) core.Options {
	return core.Options{Tau: in.spec.Tau, Parallelism: par}
}

// statCounts flattens the public core.Stats counters into per-layer metrics.
func statCounts(st core.Stats) map[string]float64 {
	return map[string]float64{
		"index.groups":             float64(st.Groups),
		"core.agp_abnormal_groups": float64(st.AbnormalGroups),
		"mln.learn_iterations":     float64(st.LearnIterations),
		"core.rsc_repairs":         float64(st.RSCRepairs),
		"core.fscr_cell_changes":   float64(st.FSCRCellChanges),
		"core.fscr_failures":       float64(st.FusionFailures),
		"core.duplicates_removed":  float64(st.DuplicatesRemoved),
	}
}

// obsSnapshot flattens the product's metrics registry: counters and gauges
// by name{labels}, histograms as name{labels}_count and name{labels}_sum.
func obsSnapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range obs.Default().Snapshot() {
		key := s.Name + s.Labels
		if s.Type == "histogram" {
			out[key+"_count"] = float64(s.Count)
			out[key+"_sum"] = s.Sum
			continue
		}
		out[key] = s.Value
	}
	return out
}

// ------------------------------------------------------------------ solo

// cleaned is the adapter-private payload of a clean op's output.
type cleaned struct {
	repaired *dataset.Table
}

// soloHarness cleans one CSV document on one node.
type soloHarness struct {
	in   *inputs
	opts core.Options
}

func newSoloHarness(in *inputs, par int, _ string) (harness, error) {
	return &soloHarness{in: in, opts: in.coreOptions(par)}, nil
}

func (h *soloHarness) units() float64 { return float64(h.in.dirty.Len()) }
func (h *soloHarness) close() error   { return nil }
func (h *soloHarness) staged() bool   { return true }

func (h *soloHarness) ingest() (*dataset.Table, *dataset.Encoded, error) {
	stream, err := dataset.StreamCSV(bytes.NewReader(h.in.csv))
	if err != nil {
		return nil, nil, err
	}
	return dataset.EncodeStream(stream, nil)
}

func writeCSV(tb *dataset.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// op is what cmd/mlnclean does: CSV → StreamCSV+EncodeStream →
// core.CleanEncoded (the fused streaming pipeline) → WriteCSV.
func (h *soloHarness) op(tr *tracer) (opOut, error) {
	root := tr.beginOp("op")
	defer tr.end(root)
	sp := tr.begin("dataset.ingest")
	dirty, enc, err := h.ingest()
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	sp = tr.begin("core.clean_fused")
	res, err := core.CleanEncoded(context.Background(), dirty, enc, h.in.rules, h.opts)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	sp = tr.begin("dataset.write")
	out, err := writeCSV(res.Clean)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	return opOut{digest: sha256.Sum256(out), counts: statCounts(res.Stats), detail: cleaned{res.Repaired}}, nil
}

// tracedOp is the same clean driven stage by stage through the public stage
// functions, with a span around each layer. Its output must equal op's.
func (h *soloHarness) tracedOp(tr *tracer) (opOut, error) {
	ctx := context.Background()
	root := tr.beginOp("op")
	defer tr.end(root)

	sp := tr.begin("dataset.ingest")
	dirty, enc, err := h.ingest()
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	st := core.Stats{Tuples: dirty.Len()}

	sp = tr.begin("index.build")
	ix, err := index.BuildConfigured(dirty, h.in.rules, index.BuildConfig{Encoded: enc})
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	ixStats := ix.Stats()
	fullScans := 0
	for _, c := range ix.Plan().Choices() {
		if c.Scan == "full-scan" {
			fullScans++
		}
	}

	sp = tr.begin("core.agp")
	err = core.StageAGP(ctx, ix, h.opts, &st)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	sp = tr.begin("core.learn")
	err = core.StageLearn(ctx, ix, h.opts, &st)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	sp = tr.begin("core.rsc")
	err = core.StageRSC(ctx, ix, h.opts, &st)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	for _, b := range ix.Blocks {
		st.Groups += len(b.Groups)
	}

	sp = tr.begin("core.fscr")
	repaired := core.RunFSCREncoded(dirty, ix.Encoded(), core.FusionBlocksFromIndex(ix), h.opts, &st)
	tr.end(sp)

	sp = tr.begin("core.dedup")
	clean, dups := core.Dedup(repaired)
	tr.end(sp)
	for _, d := range dups {
		st.DuplicatesRemoved += len(d) - 1
	}

	sp = tr.begin("dataset.write")
	out, err := writeCSV(clean)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	counts := statCounts(st)
	counts["index.pieces"] = float64(ixStats.Pieces)
	counts["plan.full_scan_rules"] = float64(fullScans)
	return opOut{digest: sha256.Sum256(out), counts: counts, detail: cleaned{repaired}}, nil
}

func (h *soloHarness) f1(o opOut) (float64, error) { return h.in.f1(o) }

// f1 scores a clean op's repaired table against the truth.
func (in *inputs) f1(o opOut) (float64, error) {
	c, ok := o.detail.(cleaned)
	if !ok {
		return 0, errors.New("op output carries no repaired table")
	}
	return eval.RepairQuality(in.truth, in.dirty, c.repaired).F1, nil
}

// verify checks fused output == staged output byte for byte.
func (h *soloHarness) verify(ref opOut, _ bool) error {
	st, err := h.tracedOp(nil)
	if err != nil {
		return fmt.Errorf("staged op: %w", err)
	}
	if st.digest != ref.digest {
		return errors.New("staged output differs from fused output")
	}
	return nil
}

// layerMetrics measures the fused pipeline's share of the user op, and the
// distance hot path in isolation.
func (h *soloHarness) layerMetrics(m metricSet, _ *tracer) error {
	// A private trace of the user op: only CleanEncoded's span is wanted.
	tr := newTracer()
	for i := 0; i < traceK; i++ {
		runtime.GC()
		if _, err := h.op(tr); err != nil {
			return err
		}
	}
	m.set("core.clean_fused_ms", ms(meanWall(fastestProfiles(profiles(tr.spans), 2), "core.clean_fused")), "ms")

	// ID pairs sampled from the lane's own dictionary.
	_, enc, err := h.ingest()
	if err != nil {
		return err
	}
	n := enc.Dict.Len()
	if n < 2 {
		return nil
	}
	const pairs = 100_000
	rng := rand.New(rand.NewSource(h.in.seed*7919 + 3))
	ab := make([][2]uint32, pairs)
	for i := range ab {
		ab[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	ev := distance.NewEvaluator(distance.Levenshtein{}, enc.Dict)
	pass := func() time.Duration {
		t0 := time.Now()
		var sink float64
		for _, p := range ab {
			sink += ev.PairBounded(p[0], p[1], 3)
		}
		d := time.Since(t0)
		_ = sink
		return d
	}
	cold := pass()
	memo := pass()
	m.set("distance.pair_ns", float64(cold.Nanoseconds())/pairs, "ns")
	m.set("distance.pair_memo_ns", float64(memo.Nanoseconds())/pairs, "ns")
	return nil
}

// ------------------------------------------------------------ distributed

type distHarness struct {
	in  *inputs
	par int
}

func newDistHarness(in *inputs, par int, _ string) (harness, error) {
	return &distHarness{in: in, par: par}, nil
}

func (h *distHarness) units() float64 { return float64(h.in.dirty.Len()) }
func (h *distHarness) close() error   { return nil }
func (h *distHarness) staged() bool   { return false }

// run is one distributed clean over the named transport: CSV →
// distributed.CleanStream with par workers → WriteCSV.
func (h *distHarness) run(tr *tracer, transport string) (opOut, error) {
	factory, err := distributed.TransportByName(transport)
	if err != nil {
		return opOut{}, err
	}
	root := tr.beginOp("op")
	defer tr.end(root)
	sp := tr.begin("distributed.clean_stream")
	stream, err := dataset.StreamCSV(bytes.NewReader(h.in.csv))
	if err != nil {
		tr.end(sp)
		return opOut{}, err
	}
	res, err := distributed.CleanStream(context.Background(), stream, h.in.rules, distributed.Options{
		Workers:   h.par,
		Seed:      1,
		Core:      h.in.coreOptions(h.par),
		Transport: factory,
	})
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	sp = tr.begin("dataset.write")
	out, err := writeCSV(res.Clean)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	maxDur := func(ds []time.Duration) float64 {
		var mx time.Duration
		for _, d := range ds {
			mx = max(mx, d)
		}
		return ms(mx)
	}
	counts := statCounts(res.Stats)
	counts["distributed.partition_ms"] = ms(res.PartitionDistTime + res.PartitionHeapTime)
	counts["distributed.worker_stage1_ms"] = maxDur(res.WorkerStageITimes)
	counts["distributed.worker_stage2_ms"] = maxDur(res.WorkerStageIITimes)
	counts["distributed.gather_ms"] = ms(res.GatherTime)
	counts["distributed.wall_ms"] = ms(res.WallTime)
	counts["distributed.workers_lost"] = float64(res.WorkersLost)
	var sum, mx float64
	for _, n := range res.PartSizes {
		sum += float64(n)
		mx = max(mx, float64(n))
	}
	if sum > 0 {
		counts["distributed.part_skew"] = mx / (sum / float64(len(res.PartSizes)))
	}
	return opOut{digest: sha256.Sum256(out), counts: counts, detail: cleaned{res.Repaired}}, nil
}

func (h *distHarness) op(tr *tracer) (opOut, error)       { return h.run(tr, "gob") }
func (h *distHarness) tracedOp(tr *tracer) (opOut, error) { return h.run(tr, "gob") }

func (h *distHarness) f1(o opOut) (float64, error) { return h.in.f1(o) }

// verify checks chan == gob output and, when deep, == http output too.
func (h *distHarness) verify(ref opOut, deep bool) error {
	transports := []string{"chan"}
	if deep {
		transports = append(transports, "http")
	}
	for _, tp := range transports {
		o, err := h.run(nil, tp)
		if err != nil {
			return fmt.Errorf("%s transport: %w", tp, err)
		}
		if o.digest != ref.digest {
			return fmt.Errorf("%s transport output differs from gob output", tp)
		}
	}
	return nil
}

// layerMetrics times the same input over each transport, and against a solo
// clean of the same table. The variants take turns so that none of them has
// a stretch of bad weather to itself.
func (h *distHarness) layerMetrics(m metricSet, _ *tracer) error {
	solo := &soloHarness{in: h.in, opts: h.in.coreOptions(h.par)}
	variants := []struct {
		name string
		run  func() error
	}{
		{"chan", func() error { _, err := h.run(nil, "chan"); return err }},
		{"gob", func() error { _, err := h.run(nil, "gob"); return err }},
		{"http", func() error { _, err := h.run(nil, "http"); return err }},
		{"solo", func() error { _, err := solo.op(nil); return err }},
	}
	times := map[string][]time.Duration{}
	for rep := 0; rep < traceK; rep++ {
		for _, v := range variants {
			runtime.GC()
			t0 := time.Now()
			if err := v.run(); err != nil {
				return fmt.Errorf("%s variant: %w", v.name, err)
			}
			times[v.name] = append(times[v.name], time.Since(t0))
		}
	}
	by := map[string]time.Duration{}
	for name, ds := range times {
		by[name] = floorTime(ds, 2)
	}
	for _, tp := range []string{"chan", "gob", "http"} {
		m.set("distributed.op_"+tp+"_ms", ms(by[tp]), "ms")
	}
	m.set("distributed.serialize_ms", ms(by["gob"]-by["chan"]), "ms")
	m.set("distributed.http_ms", ms(by["http"]-by["gob"]), "ms")
	m.set("distributed.vs_solo_ratio", float64(by["gob"])/float64(by["solo"]), "ratio")
	return nil
}

// ------------------------------------------------------------------ serve

// Episode shape: rows uploaded in uploadBatches batches, then mutationsPerOp
// single-tuple mutations, each followed by one page of the repair trail.
const (
	uploadBatches  = 5
	mutationsPerOp = 24
	repairsPage    = 50
)

// mutation is one pre-drawn tuple mutation with its request body.
type mutation struct {
	del    bool
	row    int
	values []string
	body   []byte
}

// serveHarness drives episodes against an in-process mlnserve over loopback
// HTTP with a real data directory (fsync on).
type serveHarness struct {
	in      *inputs
	par     int
	dir     string
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	create  []byte
	batches [][]byte
	muts    []mutation
	// truthFinal/dirtyFinal are truth and input after the episode's inserts,
	// replacements and deletes, for scoring the final version.
	truthFinal, dirtyFinal *dataset.Table
	newMS                  float64       // server.New on the fresh directory
	recovered              time.Duration // what the last restart check took
}

func newServeHarness(in *inputs, par int, dir string) (harness, error) {
	h := &serveHarness{in: in, par: par, dir: dir}
	h.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	var err error
	h.create, err = json.Marshal(server.CreateRequest{
		Rules: in.rulesText, Attrs: in.dirty.Schema.Attrs(), Workers: par, Transport: "chan",
		Tau: in.spec.Tau, FreshWeights: true,
	})
	if err != nil {
		return nil, err
	}
	n := in.dirty.Len()
	for b := 0; b < uploadBatches; b++ {
		lo, hi := b*n/uploadBatches, (b+1)*n/uploadBatches
		req := server.TuplesRequest{Rows: make([][]string, 0, hi-lo)}
		for _, t := range in.dirty.Tuples[lo:hi] {
			req.Rows = append(req.Rows, t.Values)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		h.batches = append(h.batches, body)
	}
	if err := h.drawMutations(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := h.start(); err != nil {
		return nil, err
	}
	h.newMS = ms(time.Since(t0))
	return h, nil
}

// start opens the server on the harness's data directory.
func (h *serveHarness) start() error {
	srv, err := server.New(server.ManagerConfig{DataDir: h.dir, DefaultWorkers: h.par})
	if err != nil {
		return fmt.Errorf("server.New: %w", err)
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv)
	return nil
}

func (h *serveHarness) stop() {
	if h.ts != nil {
		h.client.CloseIdleConnections()
		h.ts.Close()
		h.ts = nil
	}
	if h.srv != nil {
		h.srv.Shutdown()
		h.srv = nil
	}
}

func (h *serveHarness) close() error { h.stop(); return nil }

func (h *serveHarness) units() float64 { return mutationsPerOp }
func (h *serveHarness) staged() bool   { return false }

// drawMutations fixes the episode's mutation sequence from the seed: per six
// mutations, two single-cell corrections (an injected error set back to its
// clean value), two whole-row replacements by another row's observation, one
// insert at the next dense row and one delete. Truth and input are tracked
// alongside so the final version can be scored.
func (h *serveHarness) drawMutations() error {
	in := h.in
	n := in.dirty.Len()
	if n < 4*mutationsPerOp || len(in.errors) < mutationsPerOp {
		return fmt.Errorf("table of %d rows with %d errors is too small for %d mutations", n, len(in.errors), mutationsPerOp)
	}
	schema := in.dirty.Schema
	dirtyVals := make([][]string, n)
	truthVals := make([][]string, n)
	for i := range dirtyVals {
		if in.dirty.Tuples[i].ID != i {
			return fmt.Errorf("input tuple %d has id %d, want dense ids", i, in.dirty.Tuples[i].ID)
		}
		dirtyVals[i], truthVals[i] = in.dirty.Tuples[i].Values, in.truth.Tuples[i].Values
	}
	deleted := make(map[int]bool)
	touched := make(map[int]bool)
	rng := rand.New(rand.NewSource(in.seed*7919 + 17))
	untouched := func() int {
		for {
			if r := rng.Intn(n); !touched[r] {
				touched[r] = true
				return r
			}
		}
	}
	put := func(row int, vals []string) error {
		body, err := json.Marshal(server.MutateRequest{Values: vals})
		h.muts = append(h.muts, mutation{row: row, values: vals, body: body})
		return err
	}
	const kinds = "CRICRD"
	for i := 0; i < mutationsPerOp; i++ {
		var err error
		switch kinds[i%len(kinds)] {
		case 'C':
			var e errgen.Error
			for {
				if e = in.errors[rng.Intn(len(in.errors))]; !touched[e.TupleID] {
					break
				}
			}
			touched[e.TupleID] = true
			vals := append([]string(nil), dirtyVals[e.TupleID]...)
			vals[schema.MustIndex(e.Attr)] = e.Clean
			dirtyVals[e.TupleID] = vals
			err = put(e.TupleID, vals)
		case 'R':
			row, src := untouched(), rng.Intn(n)
			dirtyVals[row], truthVals[row] = in.dirty.Tuples[src].Values, in.truth.Tuples[src].Values
			err = put(row, dirtyVals[row])
		case 'I':
			src := rng.Intn(n)
			dirtyVals = append(dirtyVals, in.dirty.Tuples[src].Values)
			truthVals = append(truthVals, in.truth.Tuples[src].Values)
			err = put(len(dirtyVals)-1, dirtyVals[len(dirtyVals)-1])
		case 'D':
			row := untouched()
			deleted[row] = true
			h.muts = append(h.muts, mutation{del: true, row: row})
		}
		if err != nil {
			return err
		}
	}
	h.truthFinal, h.dirtyFinal = dataset.NewTable(schema), dataset.NewTable(schema)
	for row := range dirtyVals {
		if deleted[row] {
			continue
		}
		h.dirtyFinal.Tuples = append(h.dirtyFinal.Tuples, &dataset.Tuple{ID: row, Values: dirtyVals[row]})
		h.truthFinal.Tuples = append(h.truthFinal.Tuples, &dataset.Tuple{ID: row, Values: truthVals[row]})
	}
	return nil
}

// call performs one request on the single client connection and returns the
// body; any non-2xx status is an error.
func (h *serveHarness) call(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// episode is the raw record of one session's life.
type episode struct {
	session      string
	first, final []byte   // result bodies of version 1 and the last version
	acks         [][]byte // MutateResponse bodies
	pages        [][]byte // RepairsResponse bodies
	primary      time.Duration
}

// served is the adapter-private payload of an episode's output.
type served struct {
	session string
	final   server.ResultResponse
}

// runEpisode drives one session end to end. around, when non-nil, is called
// just before and just after the mutation phase; keep skips the final DELETE
// so the session survives a restart.
func (h *serveHarness) runEpisode(tr *tracer, keep bool, around func()) (*episode, error) {
	ep := &episode{}
	root := tr.beginOp("op")
	defer tr.end(root)

	ready := tr.begin("server.session_ready")
	step := func(name, method, path string, body []byte) ([]byte, error) {
		sp := tr.begin(name)
		b, err := h.call(method, path, body)
		tr.end(sp)
		return b, err
	}
	b, err := step("server.create", "POST", "/v1/sessions", h.create)
	if err != nil {
		return nil, err
	}
	var info server.SessionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return nil, fmt.Errorf("create response: %w", err)
	}
	ep.session = info.ID
	base := "/v1/sessions/" + info.ID
	for _, batch := range h.batches {
		if _, err := step("server.upload", "POST", base+"/tuples", batch); err != nil {
			return nil, err
		}
	}
	sp := tr.begin("server.clean")
	_, err = h.call("POST", base+"/clean", nil)
	for err == nil && info.State != server.StateDone {
		if b, err = h.call("GET", base, nil); err != nil {
			break
		}
		if err = json.Unmarshal(b, &info); err != nil {
			break
		}
		switch info.State {
		case server.StateFailed:
			err = fmt.Errorf("session %s failed: %s", info.ID, info.Error)
		case server.StateDone:
		default:
			time.Sleep(time.Millisecond)
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if ep.first, err = step("server.result", "GET", base+"/result", nil); err != nil {
		return nil, err
	}
	tr.end(ready)

	if around != nil {
		around()
	}
	t0 := time.Now()
	phase := tr.begin("server.mutations")
	for i, m := range h.muts {
		name, method, path := "server.put", "PUT", base+"/tuples/"+strconv.Itoa(m.row)
		if m.del {
			name, method = "server.delete", "DELETE"
		}
		ack, err := step(name, method, path, m.body)
		if err != nil {
			return nil, err
		}
		page, err := step("server.repairs", "GET", fmt.Sprintf("%s/repairs?version=%d&limit=%d", base, i+2, repairsPage), nil)
		if err != nil {
			return nil, err
		}
		ep.acks, ep.pages = append(ep.acks, ack), append(ep.pages, page)
	}
	tr.end(phase)
	ep.primary = time.Since(t0)
	if around != nil {
		around()
	}

	if ep.final, err = step("server.result", "GET", base+"/result", nil); err != nil {
		return nil, err
	}
	if !keep {
		if _, err := step("server.close", "DELETE", base, nil); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// normalise strips what legitimately differs between identical episodes (the
// session id and measured wall times) and returns the episode's digest, its
// reuse counters and its final result.
func (ep *episode) normalise() (opOut, error) {
	h := sha256.New()
	add := func(v any) error {
		b, err := json.Marshal(v)
		h.Write(b)
		h.Write([]byte{'\n'})
		return err
	}
	var final server.ResultResponse
	for _, body := range [][]byte{ep.first, ep.final} {
		var r server.ResultResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return opOut{}, fmt.Errorf("result body: %w", err)
		}
		r.WallMS = 0
		if err := add(r); err != nil {
			return opOut{}, err
		}
		final = r
	}
	var dirty, reused, refused float64
	for _, body := range ep.acks {
		var a server.MutateResponse
		if err := json.Unmarshal(body, &a); err != nil {
			return opOut{}, fmt.Errorf("mutate body: %w", err)
		}
		a.Session, a.WallMS = "", 0
		if err := add(a); err != nil {
			return opOut{}, err
		}
		if a.Delta != nil {
			dirty += float64(a.Delta.DirtyBlocks)
			reused += float64(a.Delta.ReusedBlocks)
			refused += float64(a.Delta.RefusedTuples)
		}
	}
	for _, body := range ep.pages {
		var p server.RepairsResponse
		if err := json.Unmarshal(body, &p); err != nil {
			return opOut{}, fmt.Errorf("repairs body: %w", err)
		}
		p.Session = ""
		if err := add(p); err != nil {
			return opOut{}, err
		}
	}
	n := float64(len(ep.acks))
	out := opOut{
		primary: ep.primary,
		counts: map[string]float64{
			"core.delta_dirty_blocks_per_mut":   dirty / n,
			"core.delta_reused_blocks_per_mut":  reused / n,
			"core.delta_refused_tuples_per_mut": refused / n,
		},
		detail: served{session: ep.session, final: final},
	}
	copy(out.digest[:], h.Sum(nil))
	return out, nil
}

func (h *serveHarness) op(tr *tracer) (opOut, error) {
	ep, err := h.runEpisode(tr, false, nil)
	if err != nil {
		return opOut{}, err
	}
	return ep.normalise()
}

func (h *serveHarness) tracedOp(tr *tracer) (opOut, error) { return h.op(tr) }

// f1 scores the final version against the truth with the same inserts,
// replacements and deletes applied. The API serves the deduplicated table, so
// a tuple removed as a duplicate scores as unrepaired.
func (h *serveHarness) f1(o opOut) (float64, error) {
	s, ok := o.detail.(served)
	if !ok {
		return 0, errors.New("op output carries no final result")
	}
	tb := dataset.NewTable(h.in.dirty.Schema)
	for i, row := range s.final.Rows {
		tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: s.final.IDs[i], Values: row})
	}
	return eval.RepairQuality(h.truthFinal, h.dirtyFinal, tb).F1, nil
}

// tableDigest identifies a served table by its ids and rows.
func tableDigest(ids []int, rows [][]string) [32]byte {
	b, _ := json.Marshal(struct {
		IDs  []int
		Rows [][]string
	}{ids, rows})
	return sha256.Sum256(b)
}

// bareRun is the episode's mutations replayed on a core.DeltaCleaner with no
// server around it.
type bareRun struct {
	eng     *core.DeltaCleaner
	digest  [32]byte // of the final table
	load    time.Duration
	applies []time.Duration // one per mutation
}

func (h *serveHarness) bareDelta() (*bareRun, error) {
	eng, err := core.NewDeltaCleaner(h.in.dirty.Schema, h.in.rules, core.Options{Tau: h.in.spec.Tau})
	if err != nil {
		return nil, err
	}
	run := &bareRun{eng: eng}
	t0 := time.Now()
	res, err := eng.Load(h.in.dirty)
	run.load = time.Since(t0)
	if err != nil {
		return nil, err
	}
	for _, m := range h.muts {
		mut := core.Mutation{Op: core.DeltaPut, Row: m.row, Values: m.values}
		if m.del {
			mut = core.Mutation{Op: core.DeltaDelete, Row: m.row}
		}
		t0 = time.Now()
		if res, _, err = eng.Apply([]core.Mutation{mut}); err != nil {
			return nil, err
		}
		run.applies = append(run.applies, time.Since(t0))
	}
	ids := make([]int, len(res.Clean.Tuples))
	rows := make([][]string, len(res.Clean.Tuples))
	for i, t := range res.Clean.Tuples {
		ids[i], rows[i] = t.ID, t.Values
	}
	run.digest = tableDigest(ids, rows)
	return run, nil
}

// verify checks the served final version == the same mutations on a bare
// DeltaCleaner and, when deep, == the version re-served after a restart on
// the same directory.
func (h *serveHarness) verify(ref opOut, deep bool) error {
	s, ok := ref.detail.(served)
	if !ok {
		return errors.New("op output carries no final result")
	}
	want := tableDigest(s.final.IDs, s.final.Rows)
	bare, err := h.bareDelta()
	if err != nil {
		return fmt.Errorf("bare delta: %w", err)
	}
	if bare.digest != want {
		return errors.New("served final version differs from the same mutations on a bare DeltaCleaner")
	}
	if deep {
		h.recovered, err = h.restart()
	}
	return err
}

// restart runs an episode without closing its session, restarts the server
// on the same data directory and re-reads the final version; it returns the
// time from Shutdown until the version is served again.
func (h *serveHarness) restart() (time.Duration, error) {
	ep, err := h.runEpisode(nil, true, nil)
	if err != nil {
		return 0, fmt.Errorf("restart episode: %w", err)
	}
	before, err := ep.normalise()
	if err != nil {
		return 0, err
	}
	path := fmt.Sprintf("/v1/sessions/%s/result?version=%d", ep.session, 1+len(h.muts))
	t0 := time.Now()
	h.stop()
	if err := h.start(); err != nil {
		return 0, err
	}
	body, err := h.call("GET", path, nil)
	took := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("re-serve after restart: %w", err)
	}
	var after server.ResultResponse
	if err := json.Unmarshal(body, &after); err != nil {
		return 0, err
	}
	after.WallMS = 0
	a, _ := json.Marshal(after)
	b, _ := json.Marshal(before.detail.(served).final)
	if !bytes.Equal(a, b) {
		return 0, errors.New("final version re-served after restart differs from the one served before")
	}
	if _, err := h.call("DELETE", "/v1/sessions/"+ep.session, nil); err != nil {
		return 0, err
	}
	return took, nil
}

// layerMetrics measures what the episode spans cannot: the delta engine
// without a server, a from-scratch re-clean, the WAL on its own, heap growth
// per minted version, and restart recovery.
func (h *serveHarness) layerMetrics(m metricSet, tr *tracer) error {
	m.set("server.new_ms", h.newMS, "ms")

	// The delta engine alone: the same work on every repeat, so the fastest
	// repeat of each step is kept.
	const reps = 3
	var load time.Duration
	var applies []time.Duration
	var eng *core.DeltaCleaner
	for r := 0; r < reps; r++ {
		runtime.GC()
		bare, err := h.bareDelta()
		if err != nil {
			return fmt.Errorf("bare delta: %w", err)
		}
		eng = bare.eng
		if r == 0 {
			load, applies = bare.load, bare.applies
		}
		load = min(load, bare.load)
		for i, a := range bare.applies {
			applies[i] = min(applies[i], a)
		}
	}
	var applySum time.Duration
	for _, a := range applies {
		applySum += a
	}
	apply := applySum / time.Duration(len(applies))
	m.set("core.delta_load_ms", ms(load), "ms")
	m.set("core.delta_apply_ms", ms(apply), "ms")

	final := eng.Table()
	var full time.Duration
	for r := 0; r < reps; r++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := core.Clean(final, h.in.rules, core.Options{Tau: h.in.spec.Tau}); err != nil {
			return fmt.Errorf("full re-clean: %w", err)
		}
		if d := time.Since(t0); r == 0 || d < full {
			full = d
		}
	}
	m.set("core.full_reclean_ms", ms(full), "ms")
	if apply > 0 {
		m.set("core.delta_speedup_x", float64(full)/float64(apply), "x")
	}

	// What the server adds per mutation on top of the engine: HTTP, JSON,
	// WAL append+fsync and version bookkeeping.
	fast := fastestProfiles(profiles(tr.spans), traceK)
	served := meanWall(fast, "server.put") + meanWall(fast, "server.delete")
	m.set("server.overhead_ms", ms(served-load-applySum)/float64(len(h.muts)), "ms")

	// The WAL alone: append+fsync of a mutation-sized record beside the
	// server's own log.
	probeDir := filepath.Join(h.dir, "wal-probe")
	fs, err := wal.DirFS(probeDir)
	if err != nil {
		return err
	}
	log, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{'m'}, 256)
	var appends []time.Duration
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if err := log.Append(payload); err != nil {
			log.Close()
			return fmt.Errorf("wal probe: %w", err)
		}
		appends = append(appends, time.Since(t0))
	}
	if err := log.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(probeDir); err != nil {
		return err
	}
	m.set("wal.append_ms", ms(floorTime(appends, floorK)), "ms")

	// One accounting episode: registry and live-heap deltas around the
	// mutation phase only.
	var snaps []map[string]float64
	var heaps []uint64
	around := func() {
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		heaps = append(heaps, mem.HeapAlloc)
		snaps = append(snaps, obsSnapshot())
	}
	if _, err := h.runEpisode(nil, false, around); err != nil {
		return fmt.Errorf("accounting episode: %w", err)
	}
	muts := float64(len(h.muts))
	delta := func(key string) (float64, bool) {
		after, ok := snaps[1][key]
		return after - snaps[0][key], ok
	}
	if v, ok := delta("mlnclean_wal_fsync_seconds_count"); ok {
		m.set("wal.fsyncs_per_mut", v/muts, "count")
	}
	if v, ok := delta("mlnclean_wal_append_bytes_total"); ok {
		m.set("wal.bytes_per_mut", v/muts, "B")
	}
	if v, ok := delta("mlnclean_wal_compactions_total"); ok {
		m.set("wal.compactions", v, "count")
	}
	m.set("server.heap_kib_per_version", (float64(heaps[1])-float64(heaps[0]))/1024/muts, "KiB")

	// The deep verify that precedes the probes has already restarted once.
	if h.recovered == 0 {
		if h.recovered, err = h.restart(); err != nil {
			return err
		}
	}
	m.set("server.restart_recover_ms", ms(h.recovered), "ms")
	return nil
}
