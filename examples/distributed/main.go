// Distributed: run MLNClean's Spark-style variant (§6) over a TPC-H
// projection on the concurrent executor — Algorithm 3 partitioning,
// per-worker stage I and RSC on a goroutine pool with the Eq. 6 weight merge
// exchanged over the transport, and stage II once, in the gather — sweeping
// the worker count as in Table 6, then streaming the same table through the
// batched Submit path.
package main

import (
	"fmt"
	"log"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distributed"
	"mlnclean/internal/errgen"
	"mlnclean/internal/eval"
)

func main() {
	truth, rs, err := datagen.TPCH(datagen.TPCHConfig{Customers: 400, Rows: 6000, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated TPC-H projection: %d tuples, rule: %s\n", truth.Len(), rs[0])

	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %d errors (5%%)\n\n", len(inj.Errors))

	fmt.Println("workers   wall time   cluster time   F1      partition sizes")
	var base time.Duration
	for _, workers := range []int{2, 4, 8} {
		res, err := distributed.Clean(inj.Dirty, rs, distributed.Options{
			Workers: workers,
			Seed:    1,
			Core:    core.Options{Tau: 2},
		})
		if err != nil {
			log.Fatal(err)
		}
		q := eval.RepairQuality(truth, inj.Dirty, res.Repaired)
		ct := res.ClusterTime()
		if workers == 2 {
			base = ct
		}
		fmt.Printf("%-9d %-11v %-14v %.3f   %v\n",
			workers, res.WallTime.Round(time.Millisecond), ct.Round(time.Millisecond), q.F1, res.PartSizes)
		if workers != 2 && base > 0 {
			fmt.Printf("          (%.1fx modeled speedup vs 2 workers)\n", float64(base)/float64(ct))
		}
	}

	// Streaming ingest: the same table fed through Executor.Submit in
	// batches — partitions are assigned online and shipped over the
	// transport as they arrive, never materialized up front.
	ex, err := distributed.NewExecutor(inj.Dirty.Schema, rs, distributed.Options{
		Workers: 4,
		Seed:    1,
		Core:    core.Options{Tau: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	const batchRows = 1000
	for lo := 0; lo < inj.Dirty.Len(); lo += batchRows {
		hi := lo + batchRows
		if hi > inj.Dirty.Len() {
			hi = inj.Dirty.Len()
		}
		batch := dataset.NewTable(inj.Dirty.Schema)
		for _, t := range inj.Dirty.Tuples[lo:hi] {
			batch.MustAppend(t.Values...)
		}
		if err := ex.Submit(batch); err != nil {
			log.Fatal(err)
		}
	}
	res, err := ex.Run()
	if err != nil {
		log.Fatal(err)
	}
	q := eval.RepairQuality(truth, inj.Dirty, res.Repaired)
	fmt.Printf("\nstreaming Submit (4 workers, %d-row batches): wall=%v F1=%.3f parts=%v\n",
		batchRows, res.WallTime.Round(time.Millisecond), q.F1, res.PartSizes)

	fmt.Println("\n→ wall time is the measured concurrent run on this host; cluster")
	fmt.Println("  time models partition + max(worker) + gather on an ideal cluster.")
	fmt.Println("  On 6k tuples fixed costs and timing noise decide the modeled speedup;")
	fmt.Println("  the paper's near-linear Table 6 speedup is measured on 6M tuples")
	fmt.Println("  (README › Deviations from the paper).")
}
