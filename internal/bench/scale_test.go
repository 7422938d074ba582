package bench

import (
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
)

// BenchmarkCleanAtScale is the scale lane: core.Clean over generated TPC-H
// and CAR at 100k, 300k and 1M rows, 5 % of their rule cells corrupted
// (half replacements), at the large scale's τ. Generation and injection run
// outside the timer. Beside ns/op, B/op and allocs/op it reports the peak
// heap of one clean (MeasureMem), in MiB: TPC-H at 1M rows peaks near
// 0.9 GiB. It runs only under -bench:
//
//	go test -run '^$' -bench CleanAtScale -benchtime 1x -benchmem ./internal/bench
func BenchmarkCleanAtScale(b *testing.B) {
	for _, name := range []string{"tpch", "car"} {
		for _, size := range []struct {
			label string
			rows  int
		}{{"100k", 100_000}, {"300k", 300_000}, {"1m", 1_000_000}} {
			b.Run(name+"/"+size.label, func(b *testing.B) {
				dirty, rs, tau := scaleInput(b, name, size.rows)
				b.ReportAllocs()
				b.ResetTimer()
				var peak uint64
				for range b.N {
					mp, err := MeasureMem(func() error {
						_, err := core.Clean(dirty, rs, core.Options{Tau: tau})
						return err
					})
					if err != nil {
						b.Fatal(err)
					}
					peak = max(peak, mp.PeakHeapBytes)
				}
				b.ReportMetric(float64(peak)/(1<<20), "peak_heap_MiB")
			})
		}
	}
}

// scaleInput generates the named dataset at rows rows (TPC-H with one
// customer per 20 rows, as the dist-tpch workload) and injects its errors.
func scaleInput(b *testing.B, name string, rows int) (*dataset.Table, []*rules.Rule, int) {
	b.Helper()
	var (
		truth *dataset.Table
		rs    []*rules.Rule
		err   error
		tau   int
	)
	switch name {
	case "tpch":
		truth, rs, err = datagen.TPCH(datagen.TPCHConfig{Customers: rows / 20, Rows: rows, Seed: Large.Seed})
		tau = Large.TPCHTau
	case "car":
		truth, rs, err = datagen.CAR(datagen.CARConfig{Rows: rows, Seed: Large.Seed})
		tau = Large.CARTau
	}
	if err != nil {
		b.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: Large.Seed})
	if err != nil {
		b.Fatal(err)
	}
	return inj.Dirty, rs, tau
}
