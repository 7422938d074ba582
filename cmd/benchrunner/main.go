// Command benchrunner regenerates the paper's tables and figures as text
// reports (-list prints the experiment index; where the reproduction departs
// from the paper's setup is in README › Deviations from the paper).
//
// Usage:
//
//	benchrunner -list
//	benchrunner -exp fig6-car
//	benchrunner -exp all -scale small
//	benchrunner -exp all -scale small -json reports.json
//
// With -json the report rows are additionally written to the named file as
// one JSON document. benchrunner is the fidelity printer — what the pipeline
// repairs, as the paper's figures and tables; what it costs is measured by
// the repository benchmark (bash benchmark/run.sh), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mlnclean/internal/bench"
)

// jsonDoc is the top-level -json document.
type jsonDoc struct {
	GeneratedAt time.Time       `json:"generated_at"`
	Scale       string          `json:"scale"`
	Reports     []*bench.Report `json:"reports"`
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment name, or 'all' (see -list)")
		scale    = flag.String("scale", "default", "dataset scale: small|default|large")
		list     = flag.Bool("list", false, "list available experiments")
		jsonPath = flag.String("json", "", "also write the reports to this file as JSON")
	)
	flag.Parse()
	if *list {
		for _, name := range bench.Names() {
			fmt.Printf("%-22s %s\n", name, bench.Registry[name].Description)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	sc, err := bench.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
	names := []string{*exp}
	if *exp == "all" {
		names = bench.Names()
	}
	doc := jsonDoc{GeneratedAt: time.Now().UTC(), Scale: sc.Label}
	for _, name := range names {
		start := time.Now()
		report, err := bench.Run(name, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", name, err)
			os.Exit(1)
		}
		report.Fprint(os.Stdout)
		fmt.Printf("(%s scale, took %v)\n\n", sc.Label, time.Since(start).Round(time.Millisecond))
		doc.Reports = append(doc.Reports, report)
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchrunner: wrote %s (%d reports)\n", *jsonPath, len(doc.Reports))
	}
}
