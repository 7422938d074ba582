package distributed

import (
	"testing"

	"mlnclean/internal/core"
)

// TestHTTPTransportEquivalence: the full executor protocol over loopback
// HTTP — every message really crossing the wire — produces output identical
// to the in-process channel transport for k ∈ {1, 2, 4} workers, and is
// deterministic across runs.
func TestHTTPTransportEquivalence(t *testing.T) {
	_, dirty, rs := equivalenceFixture(t)
	for _, k := range []int{1, 2, 4} {
		opts := Options{Workers: k, Seed: 1, Core: core.Options{Tau: 2}}
		ref, err := Clean(dirty, rs, opts)
		if err != nil {
			t.Fatalf("k=%d chan: %v", k, err)
		}
		opts.Transport = NewHTTPTransport
		got, err := Clean(dirty, rs, opts)
		if err != nil {
			t.Fatalf("k=%d http: %v", k, err)
		}
		if d := got.Repaired.Diff(ref.Repaired); len(d) != 0 {
			t.Errorf("k=%d: http repaired output differs from chan transport: %d cells, first %+v", k, len(d), d[0])
		}
		if got.Clean.Len() != ref.Clean.Len() {
			t.Errorf("k=%d: http clean size %d != chan %d", k, got.Clean.Len(), ref.Clean.Len())
		}
		again, err := Clean(dirty, rs, opts)
		if err != nil {
			t.Fatalf("k=%d http rerun: %v", k, err)
		}
		if d := got.Repaired.Diff(again.Repaired); len(d) != 0 {
			t.Errorf("k=%d: http output not deterministic: %d cells differ", k, len(d))
		}
	}
}
