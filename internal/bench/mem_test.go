package bench

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/errgen"
)

// MemProfile records the heap footprint of one measured run.
type MemProfile struct {
	// PeakHeapBytes is the HeapAlloc high-water observed while the measured
	// function ran: the max of a 2ms ReadMemStats sampler and the
	// before/after readings. A sampled high-water can miss sub-millisecond
	// spikes between GC cycles, but tracks the sustained working set — the
	// quantity the streaming pipeline bounds — faithfully.
	PeakHeapBytes uint64
	// TotalAllocBytes is the cumulative allocation the run performed
	// (TotalAlloc delta), independent of when the GC reclaimed it.
	TotalAllocBytes uint64
}

// MeasureMem runs fn while sampling the heap, returning its memory profile
// alongside fn's error. The heap is GC-settled before the run so the
// high-water is read against a clean floor.
func MeasureMem(fn func() error) (MemProfile, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var peak atomic.Uint64
	peak.Store(before.HeapAlloc)
	observe := func(v uint64) {
		for {
			cur := peak.Load()
			if v <= cur || peak.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				observe(ms.HeapAlloc)
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	observe(after.HeapAlloc)
	return MemProfile{
		PeakHeapBytes:   peak.Load(),
		TotalAllocBytes: after.TotalAlloc - before.TotalAlloc,
	}, err
}

// TestMeasureMem sanity-checks the sampler: a run that allocates and retains
// a known chunk must report a peak at least that high and a total-alloc delta
// covering it; the error must pass through.
func TestMeasureMem(t *testing.T) {
	const chunk = 32 << 20
	var hold []byte
	mp, err := MeasureMem(func() error {
		hold = make([]byte, chunk)
		for i := 0; i < len(hold); i += 4096 {
			hold[i] = 1
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hold[0] != 1 {
		t.Fatal("retained buffer lost")
	}
	if mp.PeakHeapBytes < chunk {
		t.Errorf("peak %d below the %d retained bytes", mp.PeakHeapBytes, chunk)
	}
	if mp.TotalAllocBytes < chunk {
		t.Errorf("total alloc %d below the %d allocated bytes", mp.TotalAllocBytes, chunk)
	}
}

// TestBoundedMemoryStreaming is the PR's bounded-memory acceptance check: the
// streaming pipeline cleans a CAR table at 10× the default benchmark scale
// under a soft memory limit, and its peak heap stays flat-per-row or better
// across the growth — a 10× table must not cost more than 10× the high-water.
//
// A strictly sublinear absolute peak is not on the table here: the dirty
// input and the repaired/clean outputs are resident tables, so the peak has
// a linear floor by construction. What streaming bounds is everything above
// that floor (raw ingest buffers, the materialized all-blocks index), and
// what this test pins is that the bound holds — nothing in the pipeline
// (memo tables, piece states, posting retention) grows superlinearly. GOGC
// is lowered during the measurement so the sampled high-water tracks the
// live set instead of the collector's overshoot, which otherwise scales
// with heap size and drowns the comparison.
func TestBoundedMemoryStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("10× default-scale clean; skipped in -short")
	}
	// A soft limit well above the expected peak: the run must complete under
	// GC pressure, not get killed — Go memory limits are not hard caps.
	oldLimit := debug.SetMemoryLimit(512 << 20)
	defer debug.SetMemoryLimit(oldLimit)
	oldGC := debug.SetGCPercent(20)
	defer debug.SetGCPercent(oldGC)

	sc := Default
	peak := func(rows int) uint64 {
		truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: rows, Seed: sc.Seed})
		if err != nil {
			t.Fatal(err)
		}
		inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: sc.Seed})
		if err != nil {
			t.Fatal(err)
		}
		// Keep only what the pipeline needs: the truth table and the error
		// list are bookkeeping, and holding them would pad the linear floor
		// in the pipeline's favor.
		dirty := inj.Dirty
		truth, inj = nil, nil
		_ = truth
		// Max over repeated runs: the 2ms sampler undersamples short runs, so
		// a single measurement biases the small table's peak low and the
		// growth ratio high.
		var best uint64
		for rep := 0; rep < 3; rep++ {
			mp, err := MeasureMem(func() error {
				res, err := core.Clean(dirty, rs, core.Options{Tau: sc.CARTau})
				if err == nil && res.Clean.Len() == 0 {
					t.Error("clean produced an empty table")
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if mp.PeakHeapBytes > best {
				best = mp.PeakHeapBytes
			}
		}
		return best
	}
	p1 := peak(sc.CARRows)
	p10 := peak(10 * sc.CARRows)
	growth := float64(p10) / float64(p1)
	t.Logf("peak heap: %d rows = %.1fMiB, %d rows = %.1fMiB (%.1f× at 10× rows)",
		sc.CARRows, float64(p1)/(1<<20), 10*sc.CARRows, float64(p10)/(1<<20), growth)
	if growth >= 10 {
		t.Errorf("peak heap grew %.1f× across 10× table growth; want flat-per-row or better (< 10×)", growth)
	}
}
