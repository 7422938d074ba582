package distance

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mlnclean/internal/intern"
)

// refEdit is the textbook full-matrix Levenshtein DP over runes: the oracle
// every kernel and entry point must match.
func refEdit(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	d := make([][]int, len(ra)+1)
	for i := range d {
		d[i] = make([]int, len(rb)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
		}
	}
	return d[len(ra)][len(rb)]
}

// refCosine is cosine distance over bigram frequency maps, as the metric was
// first written: the oracle for the sorted-vector form.
func refCosine(a, b string) float64 {
	if a == b {
		return 0
	}
	grams := func(s string) map[string]float64 {
		v := make(map[string]float64)
		r := []rune(s)
		if len(r) == 1 {
			v["\x00"+string(r[0])]++
		}
		for i := 0; i+1 < len(r); i++ {
			v[string(r[i:i+2])]++
		}
		return v
	}
	va, vb := grams(a), grams(b)
	if len(va) == 0 || len(vb) == 0 {
		return 1
	}
	var dot, na, nb float64
	for g, x := range va {
		na += x * x
		dot += x * vb[g]
	}
	for _, y := range vb {
		nb += y * y
	}
	return max(0, 1-min(1, dot/(math.Sqrt(na)*math.Sqrt(nb))))
}

// refDistance is the oracle for a built-in metric's Distance.
func refDistance(m Metric, a, b string) float64 {
	if _, ok := m.(Cosine); ok {
		return refCosine(a, b)
	}
	return float64(refEdit(a, b))
}

// internAll interns values into dict and returns their IDs.
func internAll(dict *intern.Dict, vals ...string) []uint32 {
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		ids[i] = dict.Intern(v)
	}
	return ids
}

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
		if got := (Levenshtein{}).Distance(c.a, c.b); got != float64(c.want) {
			t.Errorf("Levenshtein(%q,%q) = %v, want %d", c.a, c.b, got, c.want)
		}
		if got := refEdit(c.a, c.b); got != c.want {
			t.Errorf("refEdit(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	lev := func(a, b string) int { return int((Levenshtein{}).Distance(a, b)) }
	oracle := func(a, b string) bool { return lev(a, b) == refEdit(a, b) }
	if err := quick.Check(oracle, cfg); err != nil {
		t.Errorf("oracle: %v", err)
	}
	symmetry := func(a, b string) bool {
		return lev(a, b) == lev(b, a)
	}
	if err := quick.Check(symmetry, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a string) bool { return lev(a, a) == 0 }
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c string) bool {
		return lev(a, c) <= lev(a, b)+lev(b, c)
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
	lengthBound := func(a, b string) bool {
		d := lev(a, b)
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

// TestEditDistanceBoundedAgreesWithExact: the evaluator's bounded distance
// is exact at or under the bound and past it otherwise.
func TestEditDistanceBoundedAgreesWithExact(t *testing.T) {
	dict := intern.NewDict()
	e := NewEvaluator(Levenshtein{}, dict)
	f := func(a, b string, bound uint8) bool {
		maxD := float64(bound % 16)
		ids := internAll(dict, a, b)
		exact := float64(refEdit(a, b))
		got := e.PairBounded(ids[0], ids[1], maxD)
		if exact <= maxD {
			return got == exact
		}
		return got > maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// checkEditKernels pits every kernel that can take the pair, and the
// entry points above them, against the textbook DP, under the "exact when ≤
// bound, bound+1 otherwise" contract.
func checkEditKernels(t testing.TB, a, b string, bound int) {
	t.Helper()
	var s editScratch
	exact := refEdit(a, b)
	want := lenOrBound(exact, bound)
	if got := (Levenshtein{}).Distance(a, b); got != float64(exact) {
		t.Fatalf("Levenshtein(%q,%q) = %v, want %d", a, b, got, exact)
	}
	dict := intern.NewDict()
	ids := internAll(dict, a, b)
	if got := NewEvaluator(Levenshtein{}, dict).PairBounded(ids[0], ids[1], float64(bound)); got != float64(want) {
		t.Fatalf("PairBounded(%q,%q,%d) = %v, want %d", a, b, bound, got, want)
	}
	if got, _ := runesDP([]rune(a), []rune(b), bound, nil); got != want {
		t.Fatalf("runesDP(%q,%q,%d) = %d, want %d", a, b, bound, got, want)
	}
	if !isASCII(a) || !isASCII(b) {
		// Mixed or non-ASCII pairs take the rune path: their bytes are not
		// runes, and the bit-parallel match table has no row for them.
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
	if (Levenshtein{}).Distance("ababab", "bababa") == 0 {
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
	oracle := func(a, b string) bool { return c.Distance(a, b) == refCosine(a, b) }
	if err := quick.Check(oracle, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, p := range [][2]string{{"ab", "ab"}, {"", "a"}, {"a", "ab"}, {"münchen", "munchen"}, {"aaaa", "aa"}} {
		if got, want := c.Distance(p[0], p[1]), refCosine(p[0], p[1]); got != want {
			t.Errorf("Cosine(%q,%q) = %v, want %v", p[0], p[1], got, want)
		}
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

// TestValues: the γ-to-γ distance sums its attributes.
func TestValues(t *testing.T) {
	dict := intern.NewDict()
	e := NewEvaluator(Levenshtein{}, dict)
	inf := math.Inf(1)
	if got := e.ValuesBounded(internAll(dict, "ab", "cd"), internAll(dict, "ab", "ce"), inf); got != 1 {
		t.Errorf("ValuesBounded = %v, want 1", got)
	}
	if got := e.ValuesBounded(nil, nil, inf); got != 0 {
		t.Errorf("ValuesBounded empty = %v", got)
	}
}

func TestValuesBoundedConsistent(t *testing.T) {
	dict := intern.NewDict()
	e := NewEvaluator(Levenshtein{}, dict)
	f := func(a, b [3]string, bound uint8) bool {
		limit := float64(bound % 8)
		ai, bi := internAll(dict, a[:]...), internAll(dict, b[:]...)
		var exact float64
		for i := range a {
			exact += float64(refEdit(a[i], b[i]))
		}
		if e.ValuesBounded(ai, bi, math.Inf(1)) != exact {
			return false
		}
		got := e.ValuesBounded(ai, bi, limit)
		if exact <= limit {
			return got == exact
		}
		return got > limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestValuesBoundedInfinity: an infinite bound is no bound — the exact sum.
func TestValuesBoundedInfinity(t *testing.T) {
	dict := intern.NewDict()
	e := NewEvaluator(Levenshtein{}, dict)
	a := internAll(dict, "3347938701", "AL")
	b := internAll(dict, "2567638410", "AL")
	exact := float64(refEdit("3347938701", "2567638410"))
	if got := e.ValuesBounded(a, b, math.Inf(1)); got != exact {
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
