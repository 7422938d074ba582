package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// The two heap readings the sampler polls. heapLive is the bytes the last
// completed collection found reachable: it steps from cycle to cycle and
// holds no garbage, so its maximum over an op is what the op kept alive at
// its fullest. heapObjects also counts garbage not yet swept and follows the
// collector's pace.
const (
	heapLive    = "/gc/heap/live:bytes"
	heapObjects = "/memory/classes/heap/objects:bytes"
)

// heapSampler polls both readings every 2 ms through runtime/metrics, which
// does not stop the world, and keeps their maxima.
type heapSampler struct {
	stop                  chan struct{}
	wg                    sync.WaitGroup
	peakLive, peakObjects uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapLive}, {Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peakLive = max(h.peakLive, sample[0].Value.Uint64())
			h.peakObjects = max(h.peakObjects, sample[1].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler; the peaks are then safe to read.
func (h *heapSampler) done() {
	close(h.stop)
	h.wg.Wait()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const mib = 1 << 20
