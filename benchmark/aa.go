package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// aaRun is one child run's parsed report.
type aaRun struct {
	seed     int64
	inputSHA string
	line     contractLine
	printed  map[string]float64 // every "name value unit" line of the report
}

// estimators are the op-time summaries a run prints; the A/A tool shows how
// well each repeats between two runs of the same inputs.
var estimators = []string{"bench.op_min_ms", "bench.op_floor_ms", "bench.op_p05_ms", "bench.op_p50_ms", "bench.op_mean_ms", "bench.op_p90_ms", "bench.op_p95_ms"}

// runAA is the A/A tool: it runs every workload k times, each in a fresh
// process as the acceptance driver does, in alternating workload order, and
// splits the runs of a workload into its odd and even ones. Run 2i and run
// 2i+1 share seed base+i, so the two sets see the same inputs. For each
// workload × end-to-end metric it prints min / median / max, the range and
// each set's quartile spread as shares of the median, the gap between the
// sets' medians, and the bound; any breach makes the exit status non-zero.
func runAA(sp *benchSpec, k int, base int64, seconds float64, outDir, specAt string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runs := map[string][]aaRun{}
	for i := 0; i < k; i++ {
		order := append([]workload(nil), workloads...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		seed := base + int64(i/2)
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "aa: run %d/%d %s seed %d\n", i+1, k, w.name, seed)
			r, err := childRun(self, w.name, seed, seconds, outDir, specAt)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i+1, err)
			}
			runs[w.name] = append(runs[w.name], r)
		}
	}

	breaches := 0
	fmt.Printf("A/A: %d runs per workload, %g s measured each, seeds %d..%d, parallelism %d\n\n",
		k, seconds, base, base+int64((k-1)/2), parallelism())
	fmt.Println("| workload | metric | min | median | max | (max-min)/median | spread odd | spread even | median gap | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		rs := runs[w.name]
		for _, r := range rs {
			if !r.line.Correct || r.line.Failed != 0 {
				breaches++
				fmt.Printf("| %s | run with seed %d: correct=%v failed=%d | | | | | | | | | BREACH |\n", w.name, r.seed, r.line.Correct, r.line.Failed)
			}
		}
		for i := 0; i+1 < len(rs); i += 2 {
			a, b := rs[i], rs[i+1]
			if a.inputSHA != b.inputSHA || a.line.Metrics["f1"].Value != b.line.Metrics["f1"].Value {
				breaches++
				fmt.Printf("| %s | seed %d: input_sha256 or f1 differs between two runs | | | | | | | | | BREACH |\n", w.name, a.seed)
			}
		}
		for _, em := range sp.EndToEnd {
			var all, odd, even []float64
			for i, r := range rs {
				v := r.line.Metrics[em.Name].Value
				all = append(all, v)
				if i%2 == 0 {
					odd = append(odd, v)
				} else {
					even = append(even, v)
				}
			}
			med := median(all)
			lo, hi := percentile(all, 0), percentile(all, 100)
			gap := 0.0
			if len(even) > 0 && med != 0 {
				gap = math.Abs(median(odd)-median(even)) / math.Abs(med)
			}
			so, se := spread(odd), spread(even)
			verdict := "ok"
			// setup_s is exempt from the spread rule, as in the driver.
			if gap > em.Bound || (em.Name != "setup_s" && (so > em.Bound || se > em.Bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s (%s) | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				w.name, em.Name, em.Unit, lo, med, hi, 100*(hi-lo)/med, 100*so, 100*se, 100*gap, 100*em.Bound, verdict)
		}
	}
	// Estimator evidence: runs 2i and 2i+1 saw the same inputs, so whatever
	// separates them is the box. Per estimator, the median and the largest
	// relative difference over the pairs.
	fmt.Print("\nOp-time estimators between two runs of the same inputs, |a-b| as a share of their mean (median over pairs / worst pair):\n\n")
	fmt.Println("| workload | " + strings.Join(estimators, " | ") + " |")
	fmt.Println("|---|" + strings.Repeat("---|", len(estimators)))
	for _, w := range workloads {
		rs := runs[w.name]
		row := "| " + w.name
		for _, e := range estimators {
			var gaps []float64
			for i := 0; i+1 < len(rs); i += 2 {
				a, b := rs[i].printed[e], rs[i+1].printed[e]
				if a+b > 0 {
					gaps = append(gaps, math.Abs(a-b)/((a+b)/2))
				}
			}
			row += fmt.Sprintf(" | %.1f%% / %.1f%%", 100*median(gaps), 100*percentile(gaps, 100))
		}
		fmt.Println(row + " |")
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d breach(es)", breaches)
	}
	fmt.Println("\nA/A: no breach")
	return nil
}

// childRun executes one untraced run in a child process and parses its
// report.
func childRun(self, name string, seed int64, seconds float64, outDir, specAt string) (aaRun, error) {
	cmd := exec.Command(self,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0", "-out", outDir, "-spec", specAt)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return aaRun{}, err
	}
	r := aaRun{seed: seed, printed: map[string]float64{}}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.line); err != nil {
		return aaRun{}, fmt.Errorf("last line is not the contract's JSON object: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) == 2 && f[0] == "input_sha256" {
			r.inputSHA = f[1]
		}
		if len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				r.printed[f[0]] = v
			}
		}
	}
	return r, nil
}
