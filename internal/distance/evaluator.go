package distance

import (
	"slices"
	"unicode/utf8"

	"mlnclean/internal/intern"
)

// Evaluator computes metric distances over interned value IDs: the
// γ-to-γ distance of Def. 2 without ever re-materializing strings on the
// hot path. It keeps nothing per pair: every call measures. What it keeps
// is per ID, prepared lazily: rune buffers for Levenshtein (with an ASCII
// marker so pure-byte values never decode at all) and sorted bigram
// frequency vectors for cosine. A caller that looks a pair up again keeps
// the distance itself (AGP's per-source tables, the partitioners' centroid
// table).
//
// An Evaluator is NOT safe for concurrent use; the block-parallel stages
// keep one per worker goroutine for the worker's lifetime. The dictionary is
// only read.
type Evaluator struct {
	m    Metric
	dict *intern.Dict
	kind int
	info []idInfo
	edit editScratch // Levenshtein kernel scratch, kept across calls
}

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
	e := &Evaluator{m: m, dict: dict, kind: kindOther}
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

// Pair returns the exact metric distance between two interned values.
func (e *Evaluator) Pair(a, b uint32) float64 {
	if a == b {
		return 0
	}
	return e.compute(a, b, maxEditBound)
}

// PairBounded returns the exact distance when it is ≤ bound, and some value
// > bound otherwise (Levenshtein abandons the DP early; other metrics always
// compute exactly).
func (e *Evaluator) PairBounded(a, b uint32, bound float64) float64 {
	if a == b {
		return 0
	}
	if e.kind != kindLev {
		return e.compute(a, b, 0)
	}
	return e.compute(a, b, intBound(bound))
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
// exit past bound and (for Levenshtein) per-pair bounded DP. Each attribute
// contributes independently, so a one-character typo in one field costs the
// same regardless of the other fields.
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
