// Package distributed implements the Spark variant of MLNClean (§6) in one
// process: the heap-based balanced data partitioner of Algorithm 3 (plus a
// streaming relaxation for CleanStream), stage I and RSC for every part on a
// goroutine of its own, the cross-part weight adjustment of Eq. 6 merged in
// place into the parts' pieces, and a global gather step that runs stage II
// once — resolving conflicts and removing duplicates the same way the
// stand-alone pipeline does. A part is a view of the run: the run's tuples,
// the run's encoded rows, and a fork of the run's dictionary.
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
	"time"

	"mlnclean/internal/distance"
)

// centroidTable is both partitioners' distance engine: the distance from a
// row to each of k centroid rows, the attribute-wise metric distance of
// Def. 2 over value IDs. Centroids never move once drawn, so the distance
// from a value to centroid w's cell in the value's own column is a function
// of (value ID, w): dist holds k slots per value ID, measured when the ID is
// first met, and home the column (+1) they were measured against. A value
// met again in another column is measured again each time (Pair).
type centroidTable struct {
	ev        *distance.Evaluator
	centroids [][]uint32
	home      []int32
	dist      []float64
}

// valuesBound is where a row's distance stops summing, as ValuesBounded
// does at this bound, so a custom metric's huge distance yields the same bits
// on every path.
const valuesBound = math.MaxInt32

// distances returns each row's distance to every centroid, k per row: bit
// for bit ev.ValuesBounded(row, centroid, valuesBound) — the same exact
// per-cell distances summed in attribute order — read from the table.
func (c *centroidTable) distances(rows [][]uint32) []float64 {
	k := len(c.centroids)
	dists := make([]float64, len(rows)*k)
	out := dists
	if n := c.ev.Dict().Len(); n > len(c.home) {
		n = max(n, 2*len(c.home))
		c.home = append(make([]int32, 0, n), c.home...)[:n]
		c.dist = append(make([]float64, 0, n*k), c.dist...)[:n*k]
	}
	for _, row := range rows {
		for j, id := range row {
			if c.home[id] != 0 {
				continue
			}
			c.home[id] = int32(j) + 1
			for w, cr := range c.centroids {
				c.dist[int(id)*k+w] = c.ev.Pair(id, cr[j])
			}
		}
		for w, cr := range c.centroids {
			var sum float64
			for j, id := range row {
				if c.home[id] == int32(j)+1 {
					sum += c.dist[int(id)*k+w]
				} else {
					sum += c.ev.Pair(id, cr[j])
				}
				if sum > valuesBound {
					break
				}
			}
			out[w] = sum
		}
		out = out[k:]
	}
	return dists
}

// partEntry is one tuple, by row position, in a partition's max-heap, keyed
// by the distance to the partition centroid.
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

// partition splits a table's encoded rows into k balanced parts using
// Algorithm 3: random centroids, capacity s = ⌈|T|/k⌉ per part, max-heap
// eviction when a closer tuple arrives at a full part. The tuple-to-centroid
// distance is ev's attribute-wise metric distance, from a centroidTable.
// Deterministic given rng. Each part is the row positions of its tuples, in
// the part's heap order.
//
// It also reports the two phase durations of the algorithm: the
// tuple×centroid distance computation (the map side on a real cluster) and
// the sequential heap assignment (driver side). The distributed cluster-time
// model divides the former by the worker count.
func partition(rows [][]uint32, k int, ev *distance.Evaluator, rng *rand.Rand) ([][]int, time.Duration, time.Duration, error) {
	if k <= 0 {
		return nil, 0, 0, fmt.Errorf("distributed: need k ≥ 1 parts, got %d", k)
	}
	n := len(rows)
	if n == 0 {
		return nil, 0, 0, fmt.Errorf("distributed: empty table")
	}
	k = min(k, n)
	s := (n + k - 1) / k // ⌈|T|/k⌉

	// Random distinct centroids.
	perm := rng.Perm(n)
	isCentroid := make([]bool, n)
	table := &centroidTable{ev: ev, centroids: make([][]uint32, k)}
	heaps := make([]maxHeap, k)
	for i := 0; i < k; i++ {
		table.centroids[i] = rows[perm[i]]
		isCentroid[perm[i]] = true
		heaps[i] = maxHeap{{pos: perm[i], dist: 0}}
	}

	// Phase 1: the |T|×k distance matrix (map side).
	distStart := time.Now()
	matrix := table.distances(rows)
	d := func(pos, p int) float64 { return matrix[pos*k+p] }

	// Phase 2: the sequential heap assignment (driver side).
	heapStart := time.Now()
	closestNotFull := func(pos int) int {
		best, bestD := -1, math.Inf(1)
		for p := 0; p < k; p++ {
			if len(heaps[p]) >= s {
				continue
			}
			if dp := d(pos, p); dp < bestD {
				best, bestD = p, dp
			}
		}
		return best
	}

	for pos := range rows {
		if isCentroid[pos] {
			continue
		}
		// Globally closest part.
		best, bestD := 0, math.Inf(1)
		for p := 0; p < k; p++ {
			if dp := d(pos, p); dp < bestD {
				best, bestD = p, dp
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
			return nil, 0, 0, fmt.Errorf("distributed: no non-full part for row %d", evict)
		}
		heap.Push(&heaps[p], partEntry{pos: evict, dist: d(evict, p)})
	}

	parts := make([][]int, k)
	for p := range parts {
		parts[p] = make([]int, len(heaps[p]))
		for i, e := range heaps[p] {
			parts[p][i] = e.pos
		}
	}
	return parts, heapStart.Sub(distStart), time.Since(heapStart), nil
}
