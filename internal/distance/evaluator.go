package distance

import (
	"slices"
	"unicode/utf8"

	"mlnclean/internal/intern"
)

// Evaluator computes metric distances over interned value IDs: the
// γ-to-γ distance of Def. 2 without ever re-materializing strings on the
// hot path. It memoizes exact pair distances under a symmetric key (AGP's
// nearest-group searches revisit the same γ⋆ value pairs constantly), at
// most memoCap of them, and precomputes per-ID derived data lazily: rune
// buffers for Levenshtein (with an ASCII marker so pure-byte values never
// decode at all) and sorted bigram frequency vectors for cosine.
//
// An Evaluator is NOT safe for concurrent use; the block-parallel stages
// keep one per worker goroutine for the worker's lifetime. The dictionary is
// only read.
type Evaluator struct {
	m    Metric
	dict *intern.Dict
	kind int
	memo map[uint64]float64
	info []idInfo
	edit editScratch // Levenshtein kernel scratch, kept across calls
}

// memoCap bounds the memo: a full memo is emptied before its next insert.
// A memo only ever saves recomputing an exact distance, so emptying it
// changes no result; the cap keeps an evaluator that a wide RSC group or a
// long-lived delta engine feeds at a fixed size instead of one entry per
// pair it ever measured.
const memoCap = 1 << 16

const (
	kindLev = iota
	kindCos
	kindOther
)

// idInfo caches what a metric needs about one interned value. The table is
// indexed by value ID and grown to the highest ID touched, so a slot is 16
// bytes: whatever needs a slice lives behind ext, which an ASCII value under
// a non-cosine metric never allocates.
type idInfo struct {
	prepared bool
	ascii    bool
	lossy    bool // decodes to U+FFFD somewhere, as a different string can too
	runeLen  int32
	ext      *idExt
}

// idExt is the out-of-line part of an idInfo.
type idExt struct {
	runes []rune  // decoded form; for ASCII values only filled on demand
	grams []gram  // cosine: sorted bigram vector
	norm2 float64 // cosine: squared vector norm (an exact integer)
}

// more returns the slot's out-of-line part, allocating it on first use.
func (in *idInfo) more() *idExt {
	if in.ext == nil {
		in.ext = &idExt{}
	}
	return in.ext
}

// gram is one character bigram (two runes packed) with its count.
type gram struct {
	g uint64
	n float64
}

// NewEvaluator creates an evaluator for the metric over the dictionary.
func NewEvaluator(m Metric, dict *intern.Dict) *Evaluator {
	e := &Evaluator{m: m, dict: dict, kind: kindOther, memo: make(map[uint64]float64)}
	switch m.(type) {
	case Levenshtein:
		e.kind = kindLev
	case Cosine:
		e.kind = kindCos
	}
	return e
}

// Dict returns the dictionary the evaluator reads.
func (e *Evaluator) Dict() *intern.Dict { return e.dict }

func (e *Evaluator) prep(id uint32) *idInfo {
	if int(id) >= len(e.info) {
		// Grow geometrically to the touched ID, not to the dictionary size:
		// a block evaluator only ever prepares the values its block holds.
		n := 2 * len(e.info)
		if n <= int(id) {
			n = int(id) + 1
		}
		grown := make([]idInfo, n)
		copy(grown, e.info)
		e.info = grown
	}
	in := &e.info[id]
	if in.prepared {
		return in
	}
	in.prepared = true
	s := e.dict.Value(id)
	if isASCII(s) {
		in.ascii = true
		in.runeLen = int32(len(s))
	} else {
		x := in.more()
		x.runes = appendRunes(nil, s)
		in.runeLen = int32(len(x.runes))
		in.lossy = slices.Contains(x.runes, utf8.RuneError)
	}
	if e.kind == kindCos {
		x := in.more()
		x.grams, x.norm2 = bigramVector(s)
	}
	return in
}

// RuneLen returns the rune count of the interned value.
func (e *Evaluator) RuneLen(id uint32) int { return int(e.prep(id).runeLen) }

// MinDistinct returns a lower bound on Pair(id, other) over every other ≠
// id: what an attribute costs at least once two γs differ in it. The
// dictionary mints one ID per distinct string, so under Levenshtein a
// different ID is a different string, at least one edit away — except from a
// value holding U+FFFD or bytes that decode to it, which a different string
// can match rune for rune. Cosine (distinct strings can share a bigram
// vector) and custom metrics promise nothing.
func (e *Evaluator) MinDistinct(id uint32) float64 {
	if e.kind == kindLev && !e.prep(id).lossy {
		return 1
	}
	return 0
}

// Integral reports whether every distance the evaluator returns is an exact
// integer (Levenshtein), so that a sum of its distances is the same float
// in any order.
func (e *Evaluator) Integral() bool { return e.kind == kindLev }

func pairKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Pair returns the exact metric distance between two interned values,
// memoized symmetrically.
func (e *Evaluator) Pair(a, b uint32) float64 {
	if a == b {
		return 0
	}
	k := pairKey(a, b)
	if d, ok := e.memo[k]; ok {
		return d
	}
	d := e.compute(a, b, maxEditBound)
	e.remember(k, d)
	return d
}

// remember memoizes the exact distance d under key k, emptying a full memo
// first.
func (e *Evaluator) remember(k uint64, d float64) {
	if len(e.memo) >= memoCap {
		clear(e.memo)
	}
	e.memo[k] = d
}

// Exact is Pair without the memo, neither read nor filled: for a caller
// that keeps each result in a table of its own (the partitioners' per-value
// centroid distances) and would only leave entries behind that nobody looks
// up again.
func (e *Evaluator) Exact(a, b uint32) float64 {
	if a == b {
		return 0
	}
	return e.compute(a, b, maxEditBound)
}

// Bounded is PairBounded without the memo, neither read nor filled: for
// AGP's per-source distance tables, which measure each value pair once per
// source and would fill the memo with pairs only that source looks up.
func (e *Evaluator) Bounded(a, b uint32, bound float64) float64 {
	if a == b {
		return 0
	}
	if e.kind != kindLev {
		return e.compute(a, b, 0)
	}
	return e.compute(a, b, intBound(bound))
}

// PairBounded returns the exact distance when it is ≤ bound, and some value
// > bound otherwise (Levenshtein abandons the DP early; other metrics always
// compute exactly). Only exact results are memoized.
func (e *Evaluator) PairBounded(a, b uint32, bound float64) float64 {
	if a == b {
		return 0
	}
	k := pairKey(a, b)
	if d, ok := e.memo[k]; ok {
		return d
	}
	if e.kind != kindLev {
		d := e.compute(a, b, 0)
		e.remember(k, d)
		return d
	}
	cap := intBound(bound)
	d := e.compute(a, b, cap)
	if d <= float64(cap) {
		e.remember(k, d)
	}
	return d
}

// compute dispatches on the metric kind. For Levenshtein maxDist caps the
// DP; other kinds ignore it.
func (e *Evaluator) compute(a, b uint32, maxDist int) float64 {
	switch e.kind {
	case kindLev:
		return float64(e.editDistance(a, b, maxDist))
	case kindCos:
		return e.cosine(a, b)
	default:
		return e.m.Distance(e.dict.Value(a), e.dict.Value(b))
	}
}

// editDistance is the bounded Levenshtein distance over prepared per-ID
// forms, reusing the evaluator's kernel scratch.
func (e *Evaluator) editDistance(a, b uint32, maxDist int) int {
	ia, ib := e.prep(a), e.prep(b)
	if ia.ascii && ib.ascii {
		return editBytes(e.dict.Value(a), e.dict.Value(b), maxDist, &e.edit)
	}
	d, rows := runesDP(e.runesOf(a, ia), e.runesOf(b, ib), maxDist, e.edit.rows)
	e.edit.rows = rows
	return d
}

// runesOf returns the rune view of a prepared value. An ASCII value decodes
// (and caches) its runes only when paired with a non-ASCII counterpart; the
// ascii marker stays set, so later all-ASCII pairs keep the byte fast path.
func (e *Evaluator) runesOf(id uint32, in *idInfo) []rune {
	x := in.more()
	if x.runes == nil {
		x.runes = appendRunes(nil, e.dict.Value(id))
	}
	return x.runes
}

// cosine computes 1 − cos over the prepared sorted bigram vectors, as
// Cosine.Distance does over freshly built ones.
func (e *Evaluator) cosine(a, b uint32) float64 {
	xa, xb := e.prep(a).ext, e.prep(b).ext
	return cosineGrams(xa.grams, xa.norm2, xb.grams, xb.norm2)
}

// ValuesBounded is the γ-to-γ distance over two ID slices of one width (the
// pieces of one rule): the attribute-wise sum in position order with early
// exit past bound, per-pair memoization, and (for Levenshtein) per-pair
// bounded DP. Each attribute contributes independently, so a
// one-character typo in one field costs the same regardless of the other
// fields.
func (e *Evaluator) ValuesBounded(a, b []uint32, bound float64) float64 {
	var sum float64
	for i, id := range a {
		sum += e.PairBounded(id, b[i], bound-sum)
		if sum > bound {
			return sum
		}
	}
	return sum
}
