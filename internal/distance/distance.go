// Package distance implements the string distance metrics MLNClean relies
// on: Levenshtein edit distance (the paper's default, §7.1) and cosine
// distance over character bigrams (§7.3.3). Both satisfy the Metric
// interface; pieces-of-data (γ) distances are computed attribute-wise.
package distance

import (
	"math"
	"sort"
	"strings"
)

// Metric is a string distance. Distance must be symmetric, non-negative, and
// zero iff the two strings compare equal under the metric's notion of
// equality (for both provided metrics: exact string equality).
type Metric interface {
	// Name identifies the metric ("levenshtein", "cosine").
	Name() string
	// Distance returns the raw distance between a and b.
	Distance(a, b string) float64
	// Normalized returns a distance scaled into [0, 1].
	Normalized(a, b string) float64
}

// Levenshtein is the classic edit distance (insert/delete/substitute, unit
// costs). Normalized divides by max(len(a), len(b)).
type Levenshtein struct{}

// Name implements Metric.
func (Levenshtein) Name() string { return "levenshtein" }

// Distance implements Metric. Runs in O(len(a)·len(b)) time and O(min(len))
// space.
func (Levenshtein) Distance(a, b string) float64 {
	return float64(EditDistance(a, b))
}

// Normalized implements Metric.
func (Levenshtein) Normalized(a, b string) float64 {
	if a == b {
		return 0
	}
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 0
	}
	return float64(EditDistance(a, b)) / float64(m)
}

// EditDistance computes the Levenshtein edit distance between a and b over
// runes, using the standard two-row dynamic program. The DP rows and rune
// buffers come from a scratch pool and all-ASCII inputs skip rune decoding
// entirely, so steady-state calls allocate nothing.
func EditDistance(a, b string) int {
	if a == b {
		return 0
	}
	s := getScratch()
	d := editCore(a, b, maxEditBound, s)
	putScratch(s)
	return d
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Cosine is cosine distance over character-bigram frequency vectors:
// 1 − cos(v(a), v(b)). Strings shorter than two runes are padded with a
// sentinel so single-character strings still produce a vector. Cosine is
// position-insensitive, which is exactly the weakness §7.3.3 exercises:
// misspelling the first characters of a string barely moves the bigram
// profile for long strings but devastates short sparse values.
type Cosine struct{}

// Name implements Metric.
func (Cosine) Name() string { return "cosine" }

// Distance implements Metric; cosine distance is already in [0, 1].
func (Cosine) Distance(a, b string) float64 { return cosineDistance(a, b) }

// Normalized implements Metric.
func (Cosine) Normalized(a, b string) float64 { return cosineDistance(a, b) }

func bigrams(s string) map[string]float64 {
	v := make(map[string]float64)
	r := []rune(s)
	if len(r) == 0 {
		return v
	}
	if len(r) == 1 {
		v["\x00"+string(r[0])]++
		return v
	}
	for i := 0; i+1 < len(r); i++ {
		v[string(r[i:i+2])]++
	}
	return v
}

func cosineDistance(a, b string) float64 {
	if a == b {
		return 0
	}
	va, vb := bigrams(a), bigrams(b)
	if len(va) == 0 || len(vb) == 0 {
		return 1
	}
	var dot, na, nb float64
	for g, x := range va {
		na += x * x
		if y, ok := vb[g]; ok {
			dot += x * y
		}
	}
	for _, y := range vb {
		nb += y * y
	}
	return cosineFromParts(dot, na, nb)
}

// cosineFromParts finishes a cosine distance from the dot product and the
// squared norms. Bigram counts are small integers, so all three inputs are
// exactly representable and the result does not depend on summation order —
// the map-based and sorted-vector paths agree bit for bit.
func cosineFromParts(dot, na2, nb2 float64) float64 {
	if na2 == 0 || nb2 == 0 {
		return 1
	}
	sim := dot / (math.Sqrt(na2) * math.Sqrt(nb2))
	if sim > 1 {
		sim = 1 // guard FP drift
	}
	d := 1 - sim
	if d < 0 {
		return 0
	}
	return d
}

// bigramVector builds the sorted character-bigram frequency vector of s and
// its squared norm: the Evaluator's precomputed per-ID form of bigrams().
// Each bigram packs its two runes into a uint64; single-rune strings get the
// same NUL-sentinel gram the map form uses.
func bigramVector(s string) ([]gram, float64) {
	r := []rune(s)
	if len(r) == 0 {
		return nil, 0
	}
	var gs []gram
	if len(r) == 1 {
		gs = []gram{{g: uint64(r[0]), n: 1}}
	} else {
		gs = make([]gram, 0, len(r)-1)
		for i := 0; i+1 < len(r); i++ {
			gs = append(gs, gram{g: uint64(r[i])<<32 | uint64(r[i+1]), n: 1})
		}
		sort.Slice(gs, func(i, j int) bool { return gs[i].g < gs[j].g })
		out := gs[:1]
		for _, x := range gs[1:] {
			if out[len(out)-1].g == x.g {
				out[len(out)-1].n += x.n
			} else {
				out = append(out, x)
			}
		}
		gs = out
	}
	var n2 float64
	for _, x := range gs {
		n2 += x.n * x.n
	}
	return gs, n2
}

// ByName returns the metric with the given name, defaulting to Levenshtein
// for unknown names.
func ByName(name string) Metric {
	switch strings.ToLower(name) {
	case "cosine":
		return Cosine{}
	default:
		return Levenshtein{}
	}
}

// Values returns the attribute-wise sum of metric distances between two
// equal-length value slices. This is the γ-to-γ distance used by AGP and RSC
// (Def. 2): each attribute contributes independently, so a one-character typo
// in one field costs the same regardless of the other fields.
func Values(m Metric, a, b []string) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += m.Distance(a[i], b[i])
	}
	// Unpaired attributes (length mismatch between pieces from different
	// rules) each cost the distance from the empty string.
	for i := n; i < len(a); i++ {
		sum += m.Distance(a[i], "")
	}
	for i := n; i < len(b); i++ {
		sum += m.Distance("", b[i])
	}
	return sum
}
