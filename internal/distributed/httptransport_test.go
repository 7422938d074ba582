package distributed

import (
	"fmt"
	"testing"

	"mlnclean/internal/core"
)

// TestHTTPTransportEquivalence: for every transport — chan, gob, and
// loopback HTTP with every message really crossing the wire — and
// k ∈ {1, 2, 4, 8} workers, the run's output is byte-identical to a
// reference chan run, its per-worker stage times and cluster-time model are
// complete, and each run mints its own run ID.
func TestHTTPTransportEquivalence(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	transports := []struct {
		name    string
		factory TransportFactory
	}{
		{"chan", NewChanTransport},
		{"gob", NewGobTransport},
		{"http", NewHTTPTransport},
	}
	for _, k := range []int{1, 2, 4, 8} {
		opts := Options{Workers: k, Seed: 1, Core: core.Options{Tau: 2}}
		ref, err := Clean(dirty, rs, opts)
		if err != nil {
			t.Fatalf("k=%d reference: %v", k, err)
		}
		for _, tr := range transports {
			t.Run(fmt.Sprintf("%s/k=%d", tr.name, k), func(t *testing.T) {
				opts.Transport = tr.factory
				got, err := Clean(dirty, rs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d := got.Repaired.Diff(ref.Repaired); len(d) != 0 {
					t.Errorf("repaired output differs from the reference: %d cells, first %+v", len(d), d[0])
				}
				if got.Clean.Len() != ref.Clean.Len() {
					t.Errorf("clean size %d != reference %d", got.Clean.Len(), ref.Clean.Len())
				} else if d := got.Clean.Diff(ref.Clean); len(d) != 0 {
					t.Errorf("deduplicated output differs from the reference: %d cells", len(d))
				}
				if got.ClusterTime() <= 0 {
					t.Errorf("ClusterTime = %v, want > 0", got.ClusterTime())
				}
				for w := range got.WorkerTimes {
					if got.WorkerStageITimes[w] <= 0 || got.WorkerStageIITimes[w] <= 0 {
						t.Errorf("worker %d stage breakdown incomplete: I=%v II=%v",
							w, got.WorkerStageITimes[w], got.WorkerStageIITimes[w])
					}
					if got.WorkerTimes[w] != got.WorkerStageITimes[w]+got.WorkerStageIITimes[w] {
						t.Errorf("WorkerTimes[%d] = %v, want stage I + stage II", w, got.WorkerTimes[w])
					}
				}
				if got.RunID == "" || got.RunID == ref.RunID {
					t.Errorf("run IDs not distinct per run: %q vs %q", got.RunID, ref.RunID)
				}
			})
		}
	}
}
