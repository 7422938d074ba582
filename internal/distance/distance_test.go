package distance

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEditDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"DOTHAN", "DOTH", 2},
		{"AL", "AK", 1},
		{"2567638410", "2567688400", 2},
		{"same", "same", 0},
		{"日本語", "日本", 1}, // runes, not bytes
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	symmetry := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(symmetry, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a string) bool { return EditDistance(a, a) == 0 }
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c string) bool {
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
	lengthBound := func(a, b string) bool {
		d := EditDistance(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		max := la
		if lb > max {
			max = lb
		}
		return d >= diff && d <= max
	}
	if err := quick.Check(lengthBound, cfg); err != nil {
		t.Errorf("length bounds: %v", err)
	}
}

func TestEditDistanceBoundedAgreesWithExact(t *testing.T) {
	f := func(a, b string, bound uint8) bool {
		maxD := int(bound % 16)
		exact := EditDistance(a, b)
		got := EditDistanceBounded(a, b, maxD)
		if exact <= maxD {
			return got == exact
		}
		return got > maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// checkEditKernels pits every kernel that can take the pair against the rune
// row DP, under the "exact when ≤ bound, bound+1 otherwise" contract.
func checkEditKernels(t testing.TB, a, b string, bound int) {
	t.Helper()
	var s editScratch
	ra, rb := []rune(a), []rune(b)
	exact, _ := runesDP(ra, rb, maxEditBound, nil)
	want := lenOrBound(exact, bound)
	if got := EditDistanceBounded(a, b, bound); got != want {
		t.Fatalf("EditDistanceBounded(%q,%q,%d) = %d, want %d", a, b, bound, got, want)
	}
	if got := EditDistance(a, b); got != exact {
		t.Fatalf("EditDistance(%q,%q) = %d, want %d", a, b, got, exact)
	}
	if !isASCII(a) || !isASCII(b) {
		// Mixed or non-ASCII pairs must take the rune path: their bytes are
		// not runes, and the bit-parallel match table has no row for them.
		if got := editCore(a, b, bound, &s); got != want {
			t.Fatalf("editCore(%q,%q,%d) = %d, want %d", a, b, bound, got, want)
		}
		return
	}
	long, short := a, b
	if len(long) < len(short) {
		long, short = short, long
	}
	if got := editBytes(a, b, bound, &s); got != want {
		t.Fatalf("editBytes(%q,%q,%d) = %d, want %d", a, b, bound, got, want)
	}
	if len(short) == 0 || len(long)-len(short) > bound {
		return // answered by the prefilters, before any kernel
	}
	if got := editBytesDP(long, short, bound, &s); got != want {
		t.Fatalf("editBytesDP(%q,%q,%d) = %d, want %d", long, short, bound, got, want)
	}
	if len(short) <= maxBitParallel {
		if got := editBytesBits(long, short, bound, &s.peq); got != want {
			t.Fatalf("editBytesBits(%q,%q,%d) = %d, want %d", long, short, bound, got, want)
		}
		if s.peq != [128]uint64{} {
			t.Fatalf("editBytesBits(%q,%q,%d) left its match table dirty", long, short, bound)
		}
	}
}

// TestEditKernelsAgree walks the bit-parallel kernel's edges — pattern
// lengths 1, 63, 64 (one full word) and 65 (first length on the row DP),
// bounds 0, 1 and len — over random edits of random ASCII strings, plus
// pairs with a non-ASCII operand that must fall back to the rune path.
func TestEditKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const alphabet = "abcdeABC 01-~"
	random := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	mutate := func(s string, edits int) string {
		b := []byte(s)
		for ; edits > 0; edits-- {
			switch i := rng.Intn(len(b) + 1); {
			case i == len(b) || rng.Intn(3) == 0:
				b = append(b[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[i:]...)...)
			case rng.Intn(2) == 0 && len(b) > 1:
				b = append(b[:i], b[i+1:]...)
			default:
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		return string(b)
	}
	for _, n := range []int{1, 2, 7, 31, 63, 64, 65, 100} {
		for rep := 0; rep < 40; rep++ {
			a := random(n)
			for _, b := range []string{mutate(a, rng.Intn(4)), mutate(a, n), random(n), random(1 + rng.Intn(2*n))} {
				for _, bound := range []int{0, 1, 2, n / 2, n, len(b), maxEditBound} {
					checkEditKernels(t, a, b, bound)
					checkEditKernels(t, b, a, bound)
				}
			}
		}
	}
	for _, pair := range [][2]string{
		{"münchen", "munchen"}, {"munchen", "münchen"}, {"東京都", "tokyo"},
		{strings.Repeat("a", 63) + "é", strings.Repeat("a", 64)},
		{strings.Repeat("é", 64), strings.Repeat("é", 63) + "e"},
		{"\x80", "a"}, {"a\xff", "a"},
	} {
		for _, bound := range []int{0, 1, 64} {
			checkEditKernels(t, pair[0], pair[1], bound)
		}
	}
}

func TestLevenshteinNormalized(t *testing.T) {
	l := Levenshtein{}
	if got := l.Normalized("abc", "abc"); got != 0 {
		t.Errorf("Normalized equal = %v", got)
	}
	if got := l.Normalized("abc", "xyz"); got != 1 {
		t.Errorf("Normalized disjoint = %v", got)
	}
	if got := l.Normalized("", ""); got != 0 {
		t.Errorf("Normalized empty = %v", got)
	}
	f := func(a, b string) bool {
		v := l.Normalized(a, b)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCosineDistance(t *testing.T) {
	c := Cosine{}
	if got := c.Distance("abc", "abc"); got != 0 {
		t.Errorf("identical strings: %v", got)
	}
	if got := c.Distance("ab", "cd"); got != 1 {
		t.Errorf("disjoint bigrams: %v", got)
	}
	// Cosine is position-insensitive for repeated bigram profiles: "abab"
	// vs "baba" share {ab, ba} with near-identical frequencies.
	if got := c.Distance("ababab", "bababa"); got > 0.1 {
		t.Errorf("anagram-profile distance too large: %v", got)
	}
	// Levenshtein keeps them apart — the Table 5 contrast.
	if EditDistance("ababab", "bababa") == 0 {
		t.Error("Levenshtein should distinguish the pair")
	}
	inRange := func(a, b string) bool {
		v := c.Distance(a, b)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(inRange, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	sym := func(a, b string) bool { return c.Distance(a, b) == c.Distance(b, a) }
	if err := quick.Check(sym, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCosineSingleRune(t *testing.T) {
	c := Cosine{}
	if got := c.Distance("a", "a"); got != 0 {
		t.Errorf("single equal runes: %v", got)
	}
	if got := c.Distance("a", "b"); got != 1 {
		t.Errorf("single distinct runes: %v", got)
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"cosine":      "cosine",
		"COSINE":      "cosine",
		"levenshtein": "levenshtein",
		"Levenshtein": "levenshtein",
		"":            "levenshtein",
	} {
		m, err := ByName(name)
		if err != nil || m.Name() != want {
			t.Errorf("ByName(%q) = %v, %v; want %s", name, m, err, want)
		}
	}
	for _, name := range []string{"cosin", "unknown", "jaccard"} {
		m, err := ByName(name)
		if err == nil || m != nil {
			t.Errorf("ByName(%q) = %v, %v; want an error", name, m, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "levenshtein") || !strings.Contains(msg, "cosine") {
			t.Errorf("ByName(%q) error %q does not name the valid metrics", name, msg)
		}
	}
}

func TestValues(t *testing.T) {
	l := Levenshtein{}
	if got := Values(l, []string{"ab", "cd"}, []string{"ab", "ce"}); got != 1 {
		t.Errorf("Values = %v, want 1", got)
	}
	// Length mismatch: unpaired fields cost their distance from "".
	if got := Values(l, []string{"ab"}, []string{"ab", "xyz"}); got != 3 {
		t.Errorf("Values mismatched = %v, want 3", got)
	}
	if got := Values(l, nil, nil); got != 0 {
		t.Errorf("Values empty = %v", got)
	}
}

func TestValuesBoundedConsistent(t *testing.T) {
	l := Levenshtein{}
	f := func(a, b [3]string, bound uint8) bool {
		limit := float64(bound % 8)
		exact := Values(l, a[:], b[:])
		got := ValuesBounded(l, a[:], b[:], limit)
		if exact <= limit {
			return got == exact
		}
		return got > limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestValuesBoundedInfinity(t *testing.T) {
	l := Levenshtein{}
	a := []string{"3347938701", "AL"}
	b := []string{"2567638410", "AL"}
	exact := Values(l, a, b)
	if got := ValuesBounded(l, a, b, math.Inf(1)); got != exact {
		t.Errorf("unbounded ValuesBounded = %v, want %v", got, exact)
	}
}

func TestIntBound(t *testing.T) {
	if intBound(math.Inf(1)) != math.MaxInt32 {
		t.Error("+Inf should saturate")
	}
	if intBound(-3) != 0 {
		t.Error("negative should clamp to 0")
	}
	if intBound(7.9) != 7 {
		t.Error("fractional should truncate")
	}
}
