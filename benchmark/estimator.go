package main

import (
	"math"
	"sort"
	"time"
)

// floorK is how many of the fastest ops a floor time averages. Interference
// from neighbours on a shared box only ever adds time, so the fastest ops
// are the ones that repeat; averaging a few of them damps timer granularity
// without letting the slow tail in (AA.md has the evidence).
const floorK = 3

// floorTime is the mean of the k fastest durations (all of them when there
// are fewer than k). It returns 0 for an empty input.
func floorTime(ds []time.Duration, k int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if k > len(s) {
		k = len(s)
	}
	var sum time.Duration
	for _, d := range s[:k] {
		sum += d
	}
	return sum / time.Duration(k)
}

// passFloor estimates the time of one quiet pass over k lanes from ops that
// cycled through them (op i ran lane i%k). Lanes cost different amounts, so
// their ops cannot share a floor directly, and a floor per lane would need
// every lane to have met quiet moments of its own. Instead each lane's share
// of a pass is taken as the median, over complete passes, of its op's share
// of that pass (neighbouring ops see the same weather, so shares are steady
// where times are not); dividing an op's time by its lane's share turns it
// into an estimate of a whole pass, and the floor is taken over all of them.
func passFloor(ds []time.Duration, k int) time.Duration {
	passes := len(ds) / k
	if k <= 1 || passes == 0 {
		return floorTime(ds, floorK)
	}
	share := make([]float64, k)
	var sum float64
	for j := range share {
		xs := make([]float64, passes)
		for p := range xs {
			var total time.Duration
			for _, d := range ds[p*k : (p+1)*k] {
				total += d
			}
			xs[p] = float64(ds[p*k+j]) / float64(total)
		}
		share[j] = median(xs)
		sum += share[j]
	}
	est := make([]time.Duration, len(ds))
	for i, d := range ds {
		est[i] = time.Duration(float64(d) / (share[i%k] / sum))
	}
	return floorTime(est, floorK)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance driver computes run-to-run spreads from. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the driver's steadiness measure: the distance between the first
// and third quartile as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
