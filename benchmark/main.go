// Command mlnbench is the repository's benchmark: four closed-loop workloads
// over the solo, distributed and serving paths, floor-time end-to-end
// metrics, and a separate traced pass for per-layer metrics. README.md
// describes every metric and how to run it; BENCHMARK.json at the repository
// root is its contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// pinnedSeed is the seed whose input digests and F1 values are pinned.
const pinnedSeed = 42

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Int64("seed", pinnedSeed, "seed every input is generated from")
		seconds = flag.Float64("seconds", 0, "length of the measured section (default: run_seconds of the spec)")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		aa      = flag.Int("aa", 0, "run every workload this many times and compare the two halves (A/A)")
		outDir  = flag.String("out", "benchmark/out", "directory for traces and scratch data")
		specAt  = flag.String("spec", "BENCHMARK.json", "path of the benchmark contract")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace != 0, *aa, *outDir, *specAt); err != nil {
		fmt.Fprintln(os.Stderr, "mlnbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func mainErr(name string, seed int64, seconds float64, trace bool, aa int, outDir, specAt string) error {
	sp, err := readSpec(specAt)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if aa > 0 {
		return runAA(sp, aa, seed, seconds, outDir, specAt)
	}
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	cfg := defaultConfig(w, seed, seconds, trace, outDir)
	res, err := run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return res.report(os.Stdout, cfg)
}
