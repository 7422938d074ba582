//go:build !race

package index

// raceEnabled reports whether the race detector is active; alloc-count
// assertions are skipped under it (it drops pooled items at random).
const raceEnabled = false
