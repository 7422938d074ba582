// Package distributed implements the Spark variant of MLNClean (§6) as a
// concurrent worker-pool executor: the heap-based balanced data partitioner
// of Algorithm 3 (plus a streaming relaxation for batched ingest), per-worker
// stage I and RSC on dedicated goroutines, the cross-worker weight
// adjustment of Eq. 6 as a reduce over worker-emitted piece summaries, and a
// global gather step that runs stage II once — resolving conflicts and
// removing duplicates the same way the stand-alone pipeline does. All
// coordinator↔worker traffic crosses a pluggable Transport whose messages
// are plain serializable data, so an RPC transport can replace the
// in-process one without touching the pipeline.
//
// Substitution note (see README › Deviations from the paper): the paper
// deploys on an 11-node Spark cluster; here each "worker" is a goroutine
// running stage I and RSC over its partition. Reported cluster
// time uses the ideal-cluster model max(worker times) + partition + gather,
// which approximates the scaling shape of Fig. 15 / Table 6 when the host
// has at least k free cores (see Result.ClusterTime); Result.WallTime is the
// measured concurrent counterpart.
package distributed

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
)

// partEntry is one tuple, by table position, in a partition's max-heap,
// keyed by the distance to the partition centroid.
type partEntry struct {
	pos  int
	dist float64
}

// maxHeap orders entries by descending distance (the top is the tuple
// farthest from the centroid, the eviction candidate of Alg. 3).
type maxHeap []partEntry

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].dist > h[j].dist }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(partEntry)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// partition splits the table into k balanced parts using Algorithm 3:
// random centroids, capacity s = ⌈|T|/k⌉ per part, max-heap eviction when a
// closer tuple arrives at a full part. The tuple-to-centroid distance is
// the attribute-wise metric distance. Deterministic given rng. Each part is
// the table positions of its tuples, in the part's heap order.
//
// It also reports the two phase durations of the algorithm: the
// tuple×centroid distance computation (embarrassingly parallel — the map
// side on a real cluster) and the sequential heap assignment (driver side).
// The distributed cluster-time model divides the former by the worker
// count.
func partition(tb *dataset.Table, k int, metric distance.Metric, rng *rand.Rand) ([][]int, time.Duration, time.Duration, error) {
	if k <= 0 {
		return nil, 0, 0, fmt.Errorf("distributed: need k ≥ 1 parts, got %d", k)
	}
	if tb.Len() == 0 {
		return nil, 0, 0, fmt.Errorf("distributed: empty table")
	}
	if k > tb.Len() {
		k = tb.Len()
	}
	s := (tb.Len() + k - 1) / k // ⌈|T|/k⌉

	// Random distinct centroids.
	perm := rng.Perm(tb.Len())
	centroidIdx := make(map[int]int, k) // tuple position → part
	centroids := make([]*dataset.Tuple, k)
	heaps := make([]maxHeap, k)
	for i := 0; i < k; i++ {
		centroids[i] = tb.Tuples[perm[i]]
		centroidIdx[perm[i]] = i
		heaps[i] = maxHeap{{pos: perm[i], dist: 0}}
	}

	// Phase 1: the |T|×k distance matrix (map side).
	distStart := time.Now()
	matrix := make([][]float64, tb.Len())
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	chunk := (tb.Len() + workers - 1) / workers
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < tb.Len(); lo += chunk {
		hi := lo + chunk
		if hi > tb.Len() {
			hi = tb.Len()
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for pos := lo; pos < hi; pos++ {
				row := make([]float64, k)
				for p := 0; p < k; p++ {
					row[p] = distance.Values(metric, tb.Tuples[pos].Values, centroids[p].Values)
				}
				matrix[pos] = row
			}
		}(lo, hi)
	}
	wg.Wait()
	distTime := time.Since(distStart)

	// Phase 2: the sequential heap assignment (driver side).
	heapStart := time.Now()
	closestNotFull := func(pos int) int {
		best, bestD := -1, math.Inf(1)
		for p := 0; p < k; p++ {
			if len(heaps[p]) >= s {
				continue
			}
			if d := matrix[pos][p]; d < bestD {
				best, bestD = p, d
			}
		}
		return best
	}

	for pos := range tb.Tuples {
		if _, isCentroid := centroidIdx[pos]; isCentroid {
			continue
		}
		// Globally closest part.
		best, bestD := 0, math.Inf(1)
		for p := 0; p < k; p++ {
			if d := matrix[pos][p]; d < bestD {
				best, bestD = p, d
			}
		}
		if len(heaps[best]) < s {
			heap.Push(&heaps[best], partEntry{pos: pos, dist: bestD})
			continue
		}
		// Part full: evict the farthest resident if the newcomer is closer,
		// re-homing the evictee; otherwise re-home the newcomer (Alg. 3,
		// lines 10–14).
		evict := pos
		if top := heaps[best][0]; bestD < top.dist {
			evict = top.pos
			heap.Pop(&heaps[best])
			heap.Push(&heaps[best], partEntry{pos: pos, dist: bestD})
		}
		p := closestNotFull(evict)
		if p < 0 {
			// All parts at capacity can only happen when |T| = k·s exactly
			// and every slot is taken; capacity math makes this impossible
			// for the last tuple, but guard anyway.
			return nil, 0, 0, fmt.Errorf("distributed: no non-full part for tuple %d", tb.Tuples[evict].ID)
		}
		heap.Push(&heaps[p], partEntry{pos: evict, dist: matrix[evict][p]})
	}

	parts := make([][]int, k)
	for p := range parts {
		parts[p] = make([]int, len(heaps[p]))
		for i, e := range heaps[p] {
			parts[p][i] = e.pos
		}
	}
	return parts, distTime, time.Since(heapStart), nil
}
