package distance

import (
	"math"
	"unicode/utf8"
)

// maxEditBound is the "effectively unbounded" cap: large enough that no pair
// of real strings reaches it, small enough that cap+1 never overflows.
const maxEditBound = math.MaxInt32

// intBound converts a float bound into an edit-distance cap, saturating at
// a large finite value (float→int conversion of +Inf is undefined in Go).
func intBound(f float64) int {
	if math.IsInf(f, 1) || f >= maxEditBound {
		return maxEditBound
	}
	if f < 0 {
		return 0
	}
	return int(f)
}

// editScratch holds the reusable state of one edit-distance kernel: the two
// DP rows and the bit-parallel kernel's per-byte match table (all zero
// between calls).
type editScratch struct {
	rows []int
	peq  [128]uint64
}

// grow returns a row buffer of length 2·(n+1) backed by the scratch.
func (s *editScratch) grow(n int) []int {
	need := 2 * (n + 1)
	if cap(s.rows) < need {
		s.rows = make([]int, need)
	}
	return s.rows[:need]
}

// isASCII reports whether s contains only single-byte runes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// runesDP is the bounded two-row Levenshtein DP over rune slices, for
// operands that are not both ASCII. rows is scratch space
// (grown as needed and returned); the result is exact when ≤ maxDist and
// maxDist+1 otherwise.
func runesDP(ra, rb []rune, maxDist int, rows []int) (int, []int) {
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(ra)-len(rb) > maxDist {
		return maxDist + 1, rows
	}
	if len(rb) == 0 {
		return lenOrBound(len(ra), maxDist), rows
	}
	need := 2 * (len(rb) + 1)
	if cap(rows) < need {
		rows = make([]int, need)
	}
	rows = rows[:need]
	prev, cur := rows[:len(rb)+1], rows[len(rb)+1:]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > maxDist {
			return maxDist + 1, rows
		}
		prev, cur = cur, prev
	}
	return lenOrBound(prev[len(rb)], maxDist), rows
}

// maxBitParallel is the longest pattern the bit-parallel kernel handles: one
// DP column lives in one machine word.
const maxBitParallel = 64

// editBytes is the edit distance of two all-ASCII inputs: bytes are runes,
// so the kernels index the strings directly with no decode step. A shorter
// operand of at most 64 bytes runs the bit-parallel kernel; longer ones keep
// the row DP. Both honour the same contract, so the split is invisible.
func editBytes(a, b string, maxDist int, s *editScratch) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a)-len(b) > maxDist {
		return maxDist + 1
	}
	if len(b) == 0 {
		return lenOrBound(len(a), maxDist)
	}
	if len(b) <= maxBitParallel {
		return editBytesBits(a, b, maxDist, &s.peq)
	}
	return editBytesDP(a, b, maxDist, s)
}

// editBytesBits is the Myers/Hyyrö bit-parallel global edit distance of the
// ASCII strings text and pat, 1 ≤ len(pat) ≤ 64 and len(pat) ≤ len(text): bit
// i of pv/mv says column cell i+1 is one more/less than cell i, so one text byte
// advances the whole DP column in a dozen word operations. score tracks the
// column's last cell, D[len(pat)][j]. Each remaining text byte can lower
// that cell by at most one, which gives the early exit its bound. peq must
// be all zero on entry and is zeroed again (by re-walking pat) on return.
func editBytesBits(text, pat string, maxDist int, peq *[128]uint64) int {
	for i := 0; i < len(pat); i++ {
		peq[pat[i]] |= 1 << uint(i)
	}
	m, n := len(pat), len(text)
	last := uint64(1) << uint(m-1)
	pv, mv := ^uint64(0), uint64(0)
	score := m
	for j := 0; j < n; j++ {
		eq := peq[text[j]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		if score-(n-1-j) > maxDist {
			score = maxDist + 1
			break
		}
		// Global distance: row 0 grows by one per text byte, so a set bit
		// shifts into the horizontal-plus vector.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	for i := 0; i < len(pat); i++ {
		peq[pat[i]] = 0
	}
	return score
}

// editBytesDP is the bounded two-row DP over ASCII strings with
// len(a) ≥ len(b) ≥ 1: the path for operands too long for one word.
func editBytesDP(a, b string, maxDist int, s *editScratch) int {
	rows := s.grow(len(b))
	prev, cur := rows[:len(b)+1], rows[len(b)+1:]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		rowMin := cur[0]
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > maxDist {
			return maxDist + 1
		}
		prev, cur = cur, prev
	}
	return lenOrBound(prev[len(b)], maxDist)
}

func lenOrBound(d, maxDist int) int {
	if d > maxDist {
		return maxDist + 1
	}
	return d
}

// appendRunes decodes s into dst without allocating when dst has capacity.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}
