// Package distance implements the string distance metrics MLNClean relies
// on: Levenshtein edit distance (the paper's default, §7.1) and cosine
// distance over character bigrams (§7.3.3). Both satisfy the Metric
// interface. Every stage measures through one engine, the Evaluator, over
// interned value IDs; pieces-of-data (γ) distances are computed
// attribute-wise.
package distance

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Metric is a string distance. Distance must be symmetric, non-negative, and
// zero iff the two strings compare equal under the metric's notion of
// equality (for both provided metrics: exact string equality). The pipeline
// measures through an Evaluator, which runs the built-in metrics on its own
// per-ID forms and calls Distance only for any other metric.
type Metric interface {
	// Name identifies the metric ("levenshtein", "cosine").
	Name() string
	// Distance returns the raw distance between a and b.
	Distance(a, b string) float64
}

// Levenshtein is the classic edit distance (insert/delete/substitute, unit
// costs) over runes.
type Levenshtein struct{}

// Name implements Metric.
func (Levenshtein) Name() string { return "levenshtein" }

// Distance implements Metric with the Evaluator's kernels: byte-wise for
// all-ASCII operands, the rune row DP otherwise.
func (Levenshtein) Distance(a, b string) float64 {
	if a == b {
		return 0
	}
	if isASCII(a) && isASCII(b) {
		var s editScratch
		return float64(editBytes(a, b, maxEditBound, &s))
	}
	d, _ := runesDP(appendRunes(nil, a), appendRunes(nil, b), maxEditBound, nil)
	return float64(d)
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
func (Cosine) Distance(a, b string) float64 {
	if a == b {
		return 0
	}
	ga, na2 := bigramVector(a)
	gb, nb2 := bigramVector(b)
	return cosineGrams(ga, na2, gb, nb2)
}

// cosineGrams is 1 − cos over two sorted bigram vectors and their squared
// norms. Bigram counts are small integers, so the dot product and both norms
// are exactly representable and the result does not depend on summation
// order.
func cosineGrams(ga []gram, na2 float64, gb []gram, nb2 float64) float64 {
	if len(ga) == 0 || len(gb) == 0 {
		return 1
	}
	var dot float64
	i, j := 0, 0
	for i < len(ga) && j < len(gb) {
		switch {
		case ga[i].g == gb[j].g:
			dot += ga[i].n * gb[j].n
			i++
			j++
		case ga[i].g < gb[j].g:
			i++
		default:
			j++
		}
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
// its squared norm, the form the Evaluator precomputes per ID. Each bigram
// packs its two runes into a uint64; a single-rune string gets one gram of
// that rune after a NUL sentinel.
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

// ByName returns the metric with the given name, case-insensitively; the
// empty name means Levenshtein. Any other name is an error that lists the
// valid ones.
func ByName(name string) (Metric, error) {
	switch strings.ToLower(name) {
	case "", "levenshtein":
		return Levenshtein{}, nil
	case "cosine":
		return Cosine{}, nil
	default:
		return nil, fmt.Errorf("distance: unknown metric %q (want levenshtein or cosine)", name)
	}
}
