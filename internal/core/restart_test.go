package core

import (
	"bytes"
	"fmt"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
)

// TestDeltaLoadOfFoldMatchesApply: a served version is a function of its
// mutation-log prefix, so a restart may Load the table folded at mutation k
// instead of replaying k Applies. On CAR and HAI, an engine that is never
// restarted mints one version per mutation of the serving mix. At several
// cuts k, a fresh engine loads the table folded at k and applies the
// mutations after it, and every version it mints, the Load's included, must
// serve the bytes the never-restarted engine's did: rows, IDs, duplicate
// sets, Stats and the whole trail with its rules and weights. The two
// engines' dictionaries, evaluators and AGP memos differ; their output must
// not.
func TestDeltaLoadOfFoldMatchesApply(t *testing.T) {
	const seed, n = 4200, 66
	for _, tc := range []struct {
		name string
		gen  func() (*dataset.Table, []*rules.Rule, error)
		opts Options
	}{
		{"car", func() (*dataset.Table, []*rules.Rule, error) {
			return datagen.CAR(datagen.CARConfig{Rows: 400, Seed: seed})
		}, Options{Tau: 1}},
		{"hai", func() (*dataset.Table, []*rules.Rule, error) {
			return datagen.HAI(datagen.HAIConfig{Providers: 30, Measures: 14, Seed: seed})
		}, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			truth, rs, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: seed + 1})
			if err != nil {
				t.Fatal(err)
			}
			schema := inj.Dirty.Schema
			muts := serveMix(inj, n, seed)
			// folded is the table after the first k mutations.
			folded := func(k int) *dataset.Table {
				rows := make(map[int][]string, inj.Dirty.Len())
				for _, tp := range inj.Dirty.Tuples {
					rows[tp.ID] = tp.Values
				}
				for _, m := range muts[:k] {
					if m.Op == DeltaDelete {
						delete(rows, m.Row)
					} else {
						rows[m.Row] = m.Values
					}
				}
				return refTable(schema, rows)
			}
			engine := func(k int) (*DeltaCleaner, *Version) {
				eng, err := NewDeltaCleaner(schema, rs, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				v, err := eng.LoadVersion(folded(k))
				if err != nil {
					t.Fatal(err)
				}
				return eng, v
			}

			live, v := engine(0)
			want := [][]byte{versionBytes(t, v)}
			for i, m := range muts {
				v, _, err := live.ApplyVersion([]Mutation{m})
				if err != nil {
					t.Fatalf("mutation %d: %v", i, err)
				}
				want = append(want, versionBytes(t, v))
			}
			for _, k := range []int{1, 7, 23, 42, n - 1, n} {
				eng, v := engine(k)
				if got := versionBytes(t, v); !bytes.Equal(got, want[k]) {
					t.Fatalf("Load of the table folded at %d differs from the version Apply minted %s", k, firstDiff(got, want[k]))
				}
				for j := k; j < n; j++ {
					v, _, err := eng.ApplyVersion([]Mutation{muts[j]})
					if err != nil {
						t.Fatalf("cut %d: mutation %d: %v", k, j, err)
					}
					if got := versionBytes(t, v); !bytes.Equal(got, want[j+1]) {
						t.Fatalf("cut %d: version %d differs from the never-restarted engine's:\n%s", k, j+2, firstDiff(got, want[j+1]))
					}
				}
			}
		})
	}
}

// firstDiff shows where two serialized versions part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-120)
	return fmt.Sprintf("at byte %d:\ngot  …%s\nwant …%s", i, got[lo:min(len(got), i+120)], want[lo:min(len(want), i+120)])
}
