package distributed

import "time"

// The online partitioner behind CleanStream: a streaming relaxation of
// Algorithm 3. Centroids are drawn from the first k tuples seen, and each
// tuple goes to the nearest centroid whose part is under the running
// capacity ⌈seen/k⌉ — no retrospective eviction, so an assigned tuple never
// moves. Deterministic given the seed and the flush cadence: the centroids
// are drawn at the first flush that has k tuples to draw from.

// flush assigns the tuples appended to senc since the last flush, once
// there are enough of them to draw centroids from.
func (c *coordinator) flush() {
	if c.cent == nil && c.senc.Table().Len() < c.k {
		return // keep buffering until k centroid candidates exist
	}
	c.assign()
}

// assign gives every not-yet-assigned tuple of senc a part.
func (c *coordinator) assign() {
	tuples, rows := c.senc.Table().Tuples, c.senc.Encoded().Rows
	if c.assigned >= len(rows) {
		return
	}
	if c.cent == nil {
		// Draw centroids from the tuples seen so far (the streaming analogue
		// of Algorithm 3's random distinct centroids).
		n := len(rows)
		kk := min(c.k, n)
		perm := c.rng.Perm(n)
		c.cent = &centroidTable{ev: c.ev, centroids: make([][]uint32, c.k)}
		for i := 0; i < kk; i++ {
			c.cent.centroids[i] = rows[perm[i]]
		}
		for i := kk; i < c.k; i++ {
			c.cent.centroids[i] = c.cent.centroids[0] // degenerate: fewer tuples than workers
		}
	}
	t0 := time.Now()
	dists := c.cent.distances(rows[c.assigned:])
	t1 := time.Now()
	c.distTime += t1.Sub(t0)
	for ; c.assigned < len(rows); c.assigned++ {
		d := dists[:c.k]
		dists = dists[c.k:]
		// Running capacity ⌈(assigned+1)/k⌉ keeps parts balanced; at least
		// one part is always under it.
		capacity := (c.assigned + c.k) / c.k
		best := -1
		for w := 0; w < c.k; w++ {
			if c.loads[w] >= capacity {
				continue
			}
			if best == -1 || d[w] < d[best] {
				best = w
			}
		}
		c.loads[best]++
		c.parts[best].add(tuples[c.assigned], rows[c.assigned])
	}
	c.assignTime += time.Since(t1)
}
