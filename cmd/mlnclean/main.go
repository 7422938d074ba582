// Command mlnclean cleans a CSV dataset against a rule file using the
// MLNClean two-stage pipeline.
//
// Usage:
//
//	mlnclean -input dirty.csv -rules rules.txt -output clean.csv [flags]
//
// With -workers N (N > 1) the distributed variant of §6 cleans the table:
// Algorithm 3 partitioning in its online form (the CSV streams through it),
// every part cleaned on its own goroutine with the Eq. 6 weight merge, and a
// global gather.
//
// The rule file holds one constraint per line (see internal/rules):
//
//	FD:  ZIPCode -> City
//	CFD: Make=acura, Type -> Doors
//	DC:  not(PhoneNumber(t)=PhoneNumber(t') and State(t)!=State(t'))
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/distributed"
	"mlnclean/internal/rules"
)

// runConfig carries the CLI flags into run.
type runConfig struct {
	input, rulesPath, output string
	tau                      int
	metricName               string
	keepDups                 bool
	verbose                  bool
	workers                  int
	batchSize                int
	seed                     int64
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.input, "input", "", "dirty CSV file (required)")
	flag.StringVar(&cfg.rulesPath, "rules", "", "rule file, one constraint per line (required)")
	flag.StringVar(&cfg.output, "output", "", "cleaned CSV file (default stdout)")
	flag.IntVar(&cfg.tau, "tau", 1, "AGP abnormal-group threshold τ (0 disables AGP)")
	flag.StringVar(&cfg.metricName, "metric", "levenshtein", "distance metric: levenshtein|cosine")
	flag.BoolVar(&cfg.keepDups, "keep-duplicates", false, "skip duplicate elimination")
	flag.BoolVar(&cfg.verbose, "v", false, "print pipeline statistics to stderr")
	flag.IntVar(&cfg.workers, "workers", 1, "worker count; > 1 runs the distributed variant (§6)")
	flag.IntVar(&cfg.batchSize, "batch", 1024, "rows the distributed online partitioner reads between assignments")
	flag.Int64Var(&cfg.seed, "seed", 1, "partition centroid seed (distributed only)")
	flag.Parse()
	if cfg.input == "" || cfg.rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mlnclean:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	metric, err := distance.ByName(cfg.metricName)
	if err != nil {
		return err
	}
	if cfg.tau < 0 {
		return fmt.Errorf("-tau must be ≥ 0, got %d", cfg.tau)
	}
	rf, err := os.Open(cfg.rulesPath)
	if err != nil {
		return err
	}
	rs, err := rules.ParseList(rf)
	rf.Close()
	if err != nil {
		return err
	}
	// The flag defaults to 1, so -tau 0 is asked for: it disables AGP.
	coreOpts := core.Options{
		Tau:            cfg.tau,
		TauSet:         true,
		Metric:         metric,
		KeepDuplicates: cfg.keepDups,
	}
	start := time.Now()
	var (
		clean *dataset.Table
		stats core.Stats
	)
	if cfg.workers > 1 {
		dopts := distributed.Options{
			Workers:   cfg.workers,
			Seed:      cfg.seed,
			Core:      coreOpts,
			BatchSize: cfg.batchSize,
		}
		// Stream the CSV straight into the online partitioner — the raw
		// table is never held here.
		stream, err := dataset.StreamCSVFile(cfg.input)
		if err != nil {
			return err
		}
		res, err := distributed.CleanStream(context.Background(), stream, rs, dopts)
		if err != nil {
			return err
		}
		clean = res.Clean
		stats = res.Stats
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "distributed: %d workers, parts=%v, wall=%v, modeled cluster=%v\n",
				res.Workers, res.PartSizes,
				res.WallTime.Round(time.Millisecond), res.ClusterTime().Round(time.Millisecond))
		}
	} else {
		// Chunked CSV→Encode ingest (one pass, values interned while
		// parsing), then the block-streaming pipeline.
		stream, err := dataset.StreamCSVFile(cfg.input)
		if err != nil {
			return err
		}
		dirty, enc, err := dataset.EncodeStream(stream, nil)
		if err != nil {
			return err
		}
		res, err := core.CleanEncoded(context.Background(), dirty, enc, rs, coreOpts)
		if err != nil {
			return err
		}
		clean = res.Clean
		stats = res.Stats
	}
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "cleaned %d tuples with %d rules in %v\n", stats.Tuples, len(rs), time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(os.Stderr, "blocks=%d groups=%d abnormal=%d rsc-repairs=%d fscr-changes=%d duplicates-removed=%d\n",
			stats.Blocks, stats.Groups, stats.AbnormalGroups,
			stats.RSCRepairs, stats.FSCRCellChanges, stats.DuplicatesRemoved)
	}
	if cfg.output == "" {
		return clean.WriteCSV(os.Stdout)
	}
	return clean.WriteCSVFile(cfg.output)
}
