// Package datagen produces the three evaluation datasets of §7.1 as seeded
// synthetic equivalents: HAI (dense hospital data with the seven Table 4
// rules), CAR (sparse used-vehicle data with a CFD and an FD), and TPC-H (a
// customer ⋈ lineitem projection with one FD). Real dumps are not
// redistributable; the generators reproduce the schema, the rule set, and
// the density characteristics the experiments depend on (see README ›
// Deviations from the paper).
package datagen

import (
	"fmt"
	"math/rand"
	"strings"
)

// namer builds pronounceable, deterministic synthetic names. Distinct names
// differ in several characters, which matters for the Levenshtein-based
// cleaning: single-character typos stay closer to their origin than to any
// other name.
type namer struct {
	rng       *rand.Rand
	used      map[string]struct{}
	onsets    []string
	vowels    []string
	codas     []string
	minSyll   int
	maxSyll   int
	maxRetry  int
	decorated bool
}

func newNamer(rng *rand.Rand, minSyll, maxSyll int) *namer {
	return &namer{
		rng:      rng,
		used:     make(map[string]struct{}),
		onsets:   []string{"b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "k", "l", "m", "n", "p", "pr", "r", "s", "st", "t", "tr", "v", "w", "z"},
		vowels:   []string{"a", "e", "i", "o", "u", "ai", "ea", "ou"},
		codas:    []string{"", "n", "r", "s", "l", "m", "x", "th", "nd"},
		minSyll:  minSyll,
		maxSyll:  maxSyll,
		maxRetry: 64,
	}
}

// fresh returns a new unique name.
func (n *namer) fresh() string {
	for try := 0; try < n.maxRetry; try++ {
		s := n.generate()
		if _, dup := n.used[s]; !dup {
			n.used[s] = struct{}{}
			return s
		}
	}
	// Extremely unlikely: disambiguate with a counter suffix.
	base := n.generate()
	for i := 2; ; i++ {
		s := fmt.Sprintf("%s%d", base, i)
		if _, dup := n.used[s]; !dup {
			n.used[s] = struct{}{}
			return s
		}
	}
}

func (n *namer) generate() string {
	var b strings.Builder
	syll := n.minSyll
	if n.maxSyll > n.minSyll {
		syll += n.rng.Intn(n.maxSyll - n.minSyll + 1)
	}
	for i := 0; i < syll; i++ {
		b.WriteString(n.onsets[n.rng.Intn(len(n.onsets))])
		b.WriteString(n.vowels[n.rng.Intn(len(n.vowels))])
		if n.rng.Intn(2) == 0 {
			b.WriteString(n.codas[n.rng.Intn(len(n.codas))])
		}
	}
	return strings.ToUpper(b.String())
}

// digits returns a random fixed-width numeric string.
func digits(rng *rand.Rand, width int) string {
	var b strings.Builder
	for i := 0; i < width; i++ {
		b.WriteByte(byte('0' + rng.Intn(10)))
	}
	return b.String()
}

// uniqueDigits returns a numeric string of the given width not yet in used.
func uniqueDigits(rng *rand.Rand, width int, used map[string]struct{}) string {
	for {
		s := digits(rng, width)
		if _, dup := used[s]; !dup {
			used[s] = struct{}{}
			return s
		}
	}
}
