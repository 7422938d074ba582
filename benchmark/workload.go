package main

import "time"

// inputSpec sizes one workload's generated dataset.
type inputSpec struct {
	Dataset   string // hai | car | tpch
	Providers int    // hai
	Measures  int    // hai
	Customers int    // tpch
	Rows      int    // car, tpch
	Tau       int
	Rate      float64 // share of rule-related cells corrupted
}

// opOut is what one closed-loop op hands back to the harness.
type opOut struct {
	// digest is the SHA-256 of the op's normalised output; every op of a run
	// must reproduce op 0's.
	digest [32]byte
	// primary is the part of the op the floor time is taken over; zero means
	// the whole op.
	primary time.Duration
	// counts are the public counters of this op (Stats fields and the like),
	// keyed by per-layer metric name.
	counts map[string]float64
	// detail is the adapter's private payload (tables to score).
	detail any
}

// harness is one workload's constructed state. adapter.go implements it once
// per kind of op; nothing else in the benchmark touches the product.
type harness interface {
	// op runs one closed-loop operation the way a user of the system would.
	op(tr *tracer) (opOut, error)
	// tracedOp is the op with a span around each call into a layer. It must
	// produce op's output.
	tracedOp(tr *tracer) (opOut, error)
	// staged reports whether tracedOp takes a different path through the
	// product than op does.
	staged() bool
	// units is the numerator of tuples_per_s for one op.
	units() float64
	// f1 scores an op's output against the truth.
	f1(o opOut) (float64, error)
	// verify cross-checks ref against the product's other execution paths;
	// deep adds the checks that take seconds.
	verify(ref opOut, deep bool) error
	// layerMetrics adds the per-layer numbers spans cannot supply.
	layerMetrics(m metricSet, tr *tracer) error
	close() error
}

// workload is one set of inputs the benchmark runs, with the reason it exists.
type workload struct {
	name string
	why  string
	spec inputSpec
	// newHarness constructs the harness state; dir is a fresh directory inside
	// the checkout for workloads that touch disk.
	newHarness func(in *inputs, par int, dir string) (harness, error)
	// lanes is how many independent inputs a run draws from its seed; sized
	// so that the seed-to-seed spread of tuples_per_s stays well inside its
	// bound while a complete run stays under half a minute.
	lanes int
	// Pinned for seed 42 at full scale (untraced pass): the digest of all
	// lanes' inputs and the mean F1 of their op 0. A change that moves either
	// changed what the system computes, not how fast.
	pinSHA string
	pinF1  float64
}

// workloads are the four the issue fixes. Sizes are the full-scale ones; the
// harness tests shrink them with scaled.
var workloads = []workload{
	{
		name:       "solo-hai",
		why:        "dense data, 7 rules: fusion (FSCR), AGP and weight learning dominate a single-node clean; ingest and dedup barely register",
		spec:       inputSpec{Dataset: "hai", Providers: 300, Measures: 14, Tau: 3, Rate: 0.15},
		newHarness: newSoloHarness, lanes: 8,
		pinSHA: "18dd7276d308f90abe91ac4d22b77e842e11a7781307502a2095995ed22cc970", pinF1: 0.871894,
	},
	{
		name:       "solo-car",
		why:        "sparse data at the paper's 30k rows: ingest, index, dedup and write are a quarter of the clean and the live heap is several times solo-hai's",
		spec:       inputSpec{Dataset: "car", Rows: 30000, Tau: 2, Rate: 0.05},
		newHarness: newSoloHarness, lanes: 4,
		pinSHA: "5fed4d7731cb255fdf14d957aa95faabb7e86f24f080e3eeece7147f430d5831", pinF1: 0.742162,
	},
	{
		name:       "dist-tpch",
		why:        "partitioning, contended worker stages, Eq. 6 merge, gather and gob serialisation sit on the blocking path; solo-only gains show little here",
		spec:       inputSpec{Dataset: "tpch", Customers: 600, Rows: 12000, Tau: 3, Rate: 0.15},
		newHarness: newDistHarness, lanes: 8,
		pinSHA: "0707e1fadb84402f1eea542ed4d2bdd9e6a834f0b4f4dd4302bcc682fdf47f81", pinF1: 0.517323,
	},
	{
		name:       "serve-mutate",
		why:        "the same core layers used as single-block delta rebuilds behind HTTP, JSON and a fsynced WAL: mutations per second of a served session",
		spec:       inputSpec{Dataset: "car", Rows: 5000, Tau: 1, Rate: 0.05},
		newHarness: newServeHarness, lanes: 3,
		pinSHA: "b0737cc9aadb97bd8a3b16e079565fc7dea3a0b3f0c5a8c2d8d9d7b9e56e4cfc", pinF1: 0.793591,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a workload's inputs for the harness tests; pinned values
// only hold at full scale.
func (w workload) scaled(div int) workload {
	s := &w.spec
	s.Providers = max(s.Providers/div, 20)
	s.Customers = max(s.Customers/div, 20)
	if s.Rows > 0 {
		s.Rows = max(s.Rows/div, 400)
	}
	w.pinSHA, w.pinF1 = "", 0
	return w
}
