package bench

import (
	"runtime"
	"sync/atomic"
	"time"
)

// MemProfile records the heap footprint of one measured run.
type MemProfile struct {
	// PeakHeapBytes is the HeapAlloc high-water observed while the measured
	// function ran: the max of a 2ms ReadMemStats sampler and the
	// before/after readings. A sampled high-water can miss sub-millisecond
	// spikes between GC cycles, but tracks the sustained working set — the
	// quantity the streaming pipeline bounds — faithfully.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// TotalAllocBytes is the cumulative allocation the run performed
	// (TotalAlloc delta), independent of when the GC reclaimed it.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
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
