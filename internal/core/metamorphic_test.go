package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// TestOutputIgnoresLabelsRuleOrderAndRowOrder: MLNClean is defined over a
// set of tuples and a set of rules, so three changes that touch neither
// must leave the repairs alone. On HAI 300×14, CAR 5k and TPC-H 10k, each
// at 5 % and 30 % errors:
//
//   - value IDs minted in reverse first-sight order (a pre-seeded dictionary
//     through dataset.Encode and CleanEncoded) — the value-ID independence
//     that interning only the rule attributes relies on;
//   - the rule list reversed, for Clean and for Load;
//   - the rows shuffled, for Clean and for Load.
//
// Five per cent of the rows are copied, so every table has duplicate sets.
// Under each, Repaired (by tuple ID) and the duplicate sets (as sets of
// IDs) equal the plain Clean's. The deduplicated table is compared by ID
// too, except for Clean on shuffled rows: there the member of a duplicate
// set that survives follows table order, where Load's follows ID order, a
// known defect (ROADMAP 36 (b)) whose assertion lands with its fix.
func TestOutputIgnoresLabelsRuleOrderAndRowOrder(t *testing.T) {
	hai, haiRules, err := datagen.HAI(datagen.HAIConfig{Providers: 300, Measures: 14, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	car, carRules, err := datagen.CAR(datagen.CARConfig{Rows: 5000, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	tpch, tpchRules, err := datagen.TPCH(datagen.TPCHConfig{Rows: 10000, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []struct {
		name  string
		truth *dataset.Table
		rs    []*rules.Rule
	}{{"hai", hai, haiRules}, {"car", car, carRules}, {"tpch", tpch, tpchRules}} {
		for _, rate := range []float64{0.05, 0.30} {
			t.Run(fmt.Sprintf("%s/%.0f%%", ds.name, rate*100), func(t *testing.T) {
				inj, err := errgen.Inject(ds.truth, ds.rs, errgen.Config{Rate: rate, ReplacementRatio: 0.5, Seed: 37})
				if err != nil {
					t.Fatal(err)
				}
				// Copied rows give every table duplicate sets to compare.
				dup, err := errgen.InjectDuplicates(inj.Dirty, errgen.DuplicateConfig{Rate: 0.05, Seed: 38})
				if err != nil {
					t.Fatal(err)
				}
				checkInvariance(t, dup.Dirty, ds.rs)
			})
		}
	}
}

func checkInvariance(t *testing.T, dirty *dataset.Table, rs []*rules.Rule) {
	base, err := Clean(dirty, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.FSCRCellChanges == 0 {
		t.Fatal("the plain clean repaired nothing: the comparison would be vacuous")
	}
	t.Logf("%d cells fused, %d duplicate sets", base.Stats.FSCRCellChanges, len(base.Duplicates))
	reversed := slices.Clone(rs)
	slices.Reverse(reversed)
	shuffled := &dataset.Table{Schema: dirty.Schema, Tuples: slices.Clone(dirty.Tuples)}
	rand.New(rand.NewSource(36)).Shuffle(len(shuffled.Tuples), func(i, j int) {
		shuffled.Tuples[i], shuffled.Tuples[j] = shuffled.Tuples[j], shuffled.Tuples[i]
	})
	load := func(tb *dataset.Table, rs []*rules.Rule) (*Result, error) {
		d, err := NewDeltaCleaner(tb.Schema, rs, Options{})
		if err != nil {
			return nil, err
		}
		return d.Load(tb)
	}

	for _, c := range []struct {
		name      string
		run       func() (*Result, error)
		sameClean bool
	}{
		{"relabelled", func() (*Result, error) {
			return CleanEncoded(context.Background(), dirty, dataset.Encode(dirty, reverseSeeded(dirty)), rs, Options{})
		}, true},
		{"clean/reversed-rules", func() (*Result, error) { return Clean(dirty, reversed, Options{}) }, true},
		{"load/reversed-rules", func() (*Result, error) { return load(dirty, reversed) }, true},
		{"clean/shuffled", func() (*Result, error) { return Clean(shuffled, rs, Options{}) }, false},
		{"load/shuffled", func() (*Result, error) { return load(shuffled, rs) }, true},
	} {
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := diffByID(base.Repaired, got.Repaired); d != "" {
			t.Errorf("%s: Repaired differs: %s", c.name, d)
		}
		if c.sameClean {
			if d := diffByID(base.Clean, got.Clean); d != "" {
				t.Errorf("%s: Clean differs: %s", c.name, d)
			}
		}
		if want, have := dupSets(base.Duplicates), dupSets(got.Duplicates); !slices.EqualFunc(want, have, slices.Equal[[]int]) {
			t.Errorf("%s: duplicate sets differ: %d sets, want %d", c.name, len(have), len(want))
		}
	}
}

// reverseSeeded returns a dictionary holding tb's values with IDs in the
// reverse of the order dataset.Encode would mint them.
func reverseSeeded(tb *dataset.Table) *intern.Dict {
	var order []string
	seen := map[string]bool{}
	for _, tu := range tb.Tuples {
		for _, v := range tu.Values {
			if !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	d := intern.NewDict()
	for i := len(order) - 1; i >= 0; i-- {
		d.Intern(order[i])
	}
	return d
}

// diffByID describes the first difference between two tables keyed by
// tuple ID, or returns "".
func diffByID(want, got *dataset.Table) string {
	if want.Len() != got.Len() {
		return fmt.Sprintf("%d tuples, want %d", got.Len(), want.Len())
	}
	byID := make(map[int][]string, got.Len())
	for _, g := range got.Tuples {
		byID[g.ID] = g.Values
	}
	for _, w := range want.Tuples {
		g, ok := byID[w.ID]
		if !ok {
			return fmt.Sprintf("tuple %d missing", w.ID)
		}
		if !slices.Equal(w.Values, g) {
			return fmt.Sprintf("tuple %d is %q, want %q", w.ID, g, w.Values)
		}
	}
	return ""
}

// dupSets normalises duplicate sets to sorted sets in sorted order.
func dupSets(sets [][]int) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		out[i] = slices.Sorted(slices.Values(s))
	}
	slices.SortFunc(out, slices.Compare[[]int])
	return out
}
