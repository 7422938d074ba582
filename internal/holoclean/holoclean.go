// Package holoclean reimplements the architecture-level behaviour of
// HoloClean (Rekatsinas et al., PVLDB 2017), the state-of-the-art baseline
// the paper compares against (§7.2): a probabilistic repair engine that
//
//   - receives the set of noisy cells from an external detector (the paper
//     grants it a perfect detector, and so do we);
//   - splits the dataset into a clean part and a noisy part;
//   - trains a log-linear model on the clean part only, over repair signals
//     derived from integrity constraints (co-occurrence with rule reason
//     values), value frequency, and minimality;
//   - infers every noisy cell independently by scoring candidate repairs
//     and taking the argmax.
//
// This reproduces the properties the paper's comparison leans on: HoloClean
// repairs one attribute value at a time (slower than MLNClean's γ-at-a-time,
// §7.2), learns from the clean partition only (hence its typo sensitivity on
// sparse data, Fig. 7), and degrades as the clean/noisy statistical gap
// grows with the error rate (Fig. 6).
package holoclean

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
)

// Options configures the baseline.
type Options struct {
	// Seed makes training-sample selection deterministic.
	Seed int64
}

// The baseline's fixed training settings.
const (
	// topK bounds the frequency-based candidate set per cell.
	topK = 12
	// epochs is the number of SGD passes over the clean training cells.
	epochs = 3
	// learningRate is the SGD step size.
	learningRate = 0.1
	// trainSample caps the number of clean training cells per attribute, to
	// keep training time proportional to data size.
	trainSample = 2000
)

// Result is the baseline's output.
type Result struct {
	// Repaired is the table with noisy cells replaced by the model's argmax
	// candidates (same tuple IDs as the input).
	Repaired *dataset.Table
	// CellsRepaired counts noisy cells whose value changed.
	CellsRepaired int
	// CandidatesScored counts (cell, candidate) pairs evaluated during
	// inference; HoloClean's per-value cleaning unit makes this its cost
	// driver.
	CandidatesScored int
}

// featureCount is the number of signals in the log-linear model. The
// signals mirror HoloClean's: constraint-derived co-occurrence, value
// frequency, and constraint violations, all harvested from the clean
// partition. (No minimality feature: trained on clean cells it degenerates
// into an always-keep-the-observed-value predictor, because the observed
// value is the training label.)
const featureCount = 3

const (
	fCooccur   = iota // fraction of rule-mates voting for the candidate
	fFrequency        // log-frequency of the candidate in the clean part
	fViolation        // constraint violations introduced by the candidate
)

// Repair runs the baseline on the dirty table. noisy lists the cells the
// (perfect) detector flagged; rules supply the repair signals.
func Repair(dirty *dataset.Table, rs []*rules.Rule, noisy []errgen.Cell, opts Options) (*Result, error) {
	for _, r := range rs {
		if err := r.Validate(dirty.Schema); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	repaired := dirty.Clone()

	noisySet := make(map[errgen.Cell]bool, len(noisy))
	noisyAttrs := make(map[string]bool)
	for _, c := range noisy {
		if !dirty.Schema.Has(c.Attr) {
			return nil, fmt.Errorf("holoclean: noisy cell references unknown attribute %q", c.Attr)
		}
		noisySet[c] = true
		noisyAttrs[c.Attr] = true
	}

	m := buildModel(dirty, rs, noisySet)

	res := &Result{Repaired: repaired}
	if len(noisy) == 0 {
		return res, nil
	}

	// Train one weight vector per noisy attribute on clean cells, in sorted
	// attribute order: every attribute draws its sample from the one rng, so
	// the order fixes which sample each gets.
	weights := make(map[string][]float64, len(noisyAttrs))
	for _, attr := range slices.Sorted(maps.Keys(noisyAttrs)) {
		weights[attr] = m.train(attr, rng)
	}

	// Infer each noisy cell independently (HoloClean's per-value unit).
	for _, c := range noisy {
		t := repaired.ByID(c.TupleID)
		if t == nil {
			continue
		}
		best, scored := m.infer(t, c.Attr, weights[c.Attr])
		res.CandidatesScored += scored
		if best != "" && best != repaired.Cell(t, c.Attr) {
			repaired.SetCell(t, c.Attr, best)
			res.CellsRepaired++
		}
	}
	return res, nil
}

// model holds the statistics harvested from the clean partition.
type model struct {
	dirty *dataset.Table
	rules []*rules.Rule
	noisy map[errgen.Cell]bool
	// cleanFreq[attr][value] counts value occurrences in clean cells.
	cleanFreq map[string]map[string]int
	// cooccur[attr][reasonCtx][value] counts, per rule, how often a clean
	// tuple with the given reason-context carries the value; reasonCtx is
	// ruleID + reason values.
	cooccur map[string]map[string]map[string]int
	// topValues[attr] lists the attribute's most frequent clean values.
	topValues map[string][]string
	// ruleOf[attr] lists rules whose result part contains attr.
	ruleOf map[string][]*rules.Rule
	// reasonCols caches each rule's reason-attribute column indices so
	// context keys build straight from tuple storage, with no per-call
	// projection slice or schema lookups.
	reasonCols map[*rules.Rule][]int
}

// ctxKey renders the (rule, reason values) context identity for tuple t —
// the key the co-occurrence statistics are bucketed under. Layout matches
// ruleID + "\x1f" + JoinKey(reason projection), built in one pass.
func (m *model) ctxKey(r *rules.Rule, t *dataset.Tuple) string {
	cols := m.reasonCols[r]
	n := len(r.ID) + len(cols)
	for _, j := range cols {
		n += len(t.Values[j])
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(r.ID)
	b.WriteByte('\x1f')
	for i, j := range cols {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(t.Values[j])
	}
	return b.String()
}

func buildModel(dirty *dataset.Table, rs []*rules.Rule, noisy map[errgen.Cell]bool) *model {
	m := &model{
		dirty:      dirty,
		rules:      rs,
		noisy:      noisy,
		cleanFreq:  make(map[string]map[string]int),
		cooccur:    make(map[string]map[string]map[string]int),
		topValues:  make(map[string][]string),
		ruleOf:     make(map[string][]*rules.Rule),
		reasonCols: make(map[*rules.Rule][]int),
	}
	for _, r := range rs {
		for _, a := range r.ResultAttrs() {
			m.ruleOf[a] = append(m.ruleOf[a], r)
		}
		cols := make([]int, 0, len(r.Reason))
		for _, a := range r.ReasonAttrs() {
			cols = append(cols, dirty.Schema.MustIndex(a))
		}
		m.reasonCols[r] = cols
	}
	for _, t := range dirty.Tuples {
		for j, v := range t.Values {
			attr := dirty.Schema.Attr(j)
			if noisy[errgen.Cell{TupleID: t.ID, Attr: attr}] {
				continue // the noisy part contributes no statistics
			}
			freq := m.cleanFreq[attr]
			if freq == nil {
				freq = make(map[string]int)
				m.cleanFreq[attr] = freq
			}
			freq[v]++
		}
		// Co-occurrence statistics per rule, from tuples whose relevant
		// cells are all clean.
		for _, r := range m.rules {
			if !r.AppliesTo(dirty, t) {
				continue
			}
			if m.anyNoisy(t, r.ReasonAttrs()) {
				continue
			}
			ctxKey := m.ctxKey(r, t)
			for _, a := range r.ResultAttrs() {
				if m.noisy[errgen.Cell{TupleID: t.ID, Attr: a}] {
					continue
				}
				byCtx := m.cooccur[a]
				if byCtx == nil {
					byCtx = make(map[string]map[string]int)
					m.cooccur[a] = byCtx
				}
				votes := byCtx[ctxKey]
				if votes == nil {
					votes = make(map[string]int)
					byCtx[ctxKey] = votes
				}
				votes[dirty.Cell(t, a)]++
			}
		}
	}
	for attr, freq := range m.cleanFreq {
		type vc struct {
			v string
			c int
		}
		all := make([]vc, 0, len(freq))
		for v, c := range freq {
			all = append(all, vc{v, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].c != all[j].c {
				return all[i].c > all[j].c
			}
			return all[i].v < all[j].v
		})
		vals := make([]string, len(all))
		for i, x := range all {
			vals[i] = x.v
		}
		m.topValues[attr] = vals
	}
	return m
}

func (m *model) anyNoisy(t *dataset.Tuple, attrs []string) bool {
	for _, a := range attrs {
		if m.noisy[errgen.Cell{TupleID: t.ID, Attr: a}] {
			return true
		}
	}
	return false
}

// candidates returns the repair candidates for tuple t's attr cell: values
// co-occurring with the tuple's rule contexts, the attribute's k most
// frequent clean values, and the observed value itself.
func (m *model) candidates(t *dataset.Tuple, attr string, k int) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	// Candidates are drawn from the clean part's domain. The observed value
	// is only a candidate when it is itself a legal domain value: a typo'd
	// value never appears in the clean part, so the model is forced to
	// repair it — the root of HoloClean's typo sensitivity on sparse data
	// (§7.2, Fig. 7).
	if observed := m.dirty.Cell(t, attr); m.cleanFreq[attr][observed] > 0 {
		add(observed)
	}
	for _, r := range m.ruleOf[attr] {
		if !r.AppliesTo(m.dirty, t) {
			continue
		}
		votes := m.cooccur[attr][m.ctxKey(r, t)]
		vals := make([]string, 0, len(votes))
		for v := range votes {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		for _, v := range vals {
			add(v)
		}
	}
	for i, v := range m.topValues[attr] {
		if i >= k {
			break
		}
		add(v)
	}
	return out
}

// features computes the signal vector for assigning candidate v to (t, attr).
func (m *model) features(t *dataset.Tuple, attr, v string) [featureCount]float64 {
	var f [featureCount]float64

	// Co-occurrence: fraction of the tuple's rule contexts whose clean
	// votes favour v.
	nCtx, votesFor := 0, 0.0
	for _, r := range m.ruleOf[attr] {
		if !r.AppliesTo(m.dirty, t) {
			continue
		}
		votes := m.cooccur[attr][m.ctxKey(r, t)]
		if len(votes) == 0 {
			continue
		}
		nCtx++
		total := 0
		for _, c := range votes {
			total += c
		}
		votesFor += float64(votes[v]) / float64(total)
	}
	if nCtx > 0 {
		f[fCooccur] = votesFor / float64(nCtx)
	}

	// Frequency prior (log-scaled, normalized by the attribute's max).
	freq := m.cleanFreq[attr]
	maxFreq := 1
	if vals := m.topValues[attr]; len(vals) > 0 {
		maxFreq = freq[vals[0]]
	}
	if c := freq[v]; c > 0 && maxFreq > 0 {
		f[fFrequency] = math.Log1p(float64(c)) / math.Log1p(float64(maxFreq))
	}

	// Constraint violations: CFD constant patterns broken by v.
	viol := 0.0
	for _, r := range m.ruleOf[attr] {
		if r.Kind != rules.CFD {
			continue
		}
		matchesReason := true
		for _, p := range r.Reason {
			if p.Const != "" && m.dirty.Cell(t, p.Attr) != p.Const {
				matchesReason = false
				break
			}
		}
		if !matchesReason {
			continue
		}
		for _, p := range r.Result {
			if p.Attr == attr && p.Const != "" && v != p.Const {
				viol++
			}
		}
	}
	f[fViolation] = -viol
	return f
}

// train fits the attribute's weight vector by SGD on clean cells: each
// clean cell is a training example whose label is its observed value among
// its candidate set (softmax cross-entropy).
func (m *model) train(attr string, rng *rand.Rand) []float64 {
	w := make([]float64, featureCount)
	w[fCooccur], w[fFrequency] = 1, 0.5 // warm start speeds convergence

	var examples []*dataset.Tuple
	for _, t := range m.dirty.Tuples {
		if !m.noisy[errgen.Cell{TupleID: t.ID, Attr: attr}] {
			examples = append(examples, t)
		}
	}
	if len(examples) == 0 {
		return w
	}
	if len(examples) > trainSample {
		idx := rng.Perm(len(examples))[:trainSample]
		sort.Ints(idx)
		sampled := make([]*dataset.Tuple, len(idx))
		for i, k := range idx {
			sampled[i] = examples[k]
		}
		examples = sampled
	}

	for epoch := 0; epoch < epochs; epoch++ {
		for _, t := range examples {
			observed := m.dirty.Cell(t, attr)
			cands := m.candidates(t, attr, topK)
			if len(cands) < 2 {
				continue
			}
			feats := make([][featureCount]float64, len(cands))
			scores := make([]float64, len(cands))
			labelIdx := -1
			maxScore := math.Inf(-1)
			for i, v := range cands {
				feats[i] = m.features(t, attr, v)
				s := 0.0
				for k := 0; k < featureCount; k++ {
					s += w[k] * feats[i][k]
				}
				scores[i] = s
				if s > maxScore {
					maxScore = s
				}
				if v == observed {
					labelIdx = i
				}
			}
			if labelIdx < 0 {
				continue
			}
			var z float64
			for i := range scores {
				scores[i] = math.Exp(scores[i] - maxScore)
				z += scores[i]
			}
			for i := range scores {
				p := scores[i] / z
				g := -p
				if i == labelIdx {
					g += 1
				}
				for k := 0; k < featureCount; k++ {
					w[k] += learningRate * g * feats[i][k]
				}
			}
		}
	}
	return w
}

// infer scores the candidates of a noisy cell and returns the argmax plus
// the number of candidates evaluated.
func (m *model) infer(t *dataset.Tuple, attr string, w []float64) (string, int) {
	observed := m.dirty.Cell(t, attr)
	cands := m.candidates(t, attr, topK)
	best, bestScore := observed, math.Inf(-1)
	for _, v := range cands {
		feats := m.features(t, attr, v)
		s := 0.0
		for k := 0; k < featureCount; k++ {
			s += w[k] * feats[k]
		}
		if s > bestScore || (s == bestScore && v < best) {
			best, bestScore = v, s
		}
	}
	return best, len(cands)
}
