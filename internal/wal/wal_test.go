package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// chaosSeeds is the fixed seed list the CI chaos job runs; CHAOS_SEEDS
// (comma-separated) overrides it — same contract as internal/distributed.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	seeds := []int64{1, 7}
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		seeds = seeds[:0]
		for _, f := range strings.Split(env, ",") {
			s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("CHAOS_SEEDS: %v", err)
			}
			seeds = append(seeds, s)
		}
	}
	return seeds
}

func rec(i int) []byte { return []byte(fmt.Sprintf("record-%04d:%s", i, strings.Repeat("x", i%37))) }

func mustOpen(t *testing.T, fs FS, o Options) (*Log, *Recovery) {
	t.Helper()
	l, r, err := Open(fs, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, r
}

func checkRecords(t *testing.T, got [][]byte, want ...[]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	l, r := mustOpen(t, fs, Options{})
	if r.Snapshot != nil || len(r.Records) != 0 || r.Truncated() {
		t.Fatalf("fresh dir recovery not empty: %+v", r)
	}
	var want [][]byte
	for i := 0; i < 25; i++ {
		p := rec(i)
		if err := l.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, p)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}

	l2, r2 := mustOpen(t, fs, Options{})
	defer l2.Close()
	if r2.Truncated() {
		t.Fatalf("clean log reports truncation: %d bytes", r2.TruncatedBytes)
	}
	checkRecords(t, r2.Records, want...)
}

// TestWALRotationAndCompaction: a directory holding several consecutive
// segments (an older log rotated by size) replays them in order, and
// compaction then folds them all into one snapshot.
func TestWALRotationAndCompaction(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	o := Options{}
	var want [][]byte
	for seq := 1; seq <= 4; seq++ {
		var seg []byte
		for i := 0; i < 10; i++ {
			p := rec(len(want))
			seg = AppendFrame(seg, p)
			want = append(want, p)
		}
		if err := fs.WriteFile(segName(seq), seg); err != nil {
			t.Fatal(err)
		}
	}

	l2, r2 := mustOpen(t, fs, o)
	checkRecords(t, r2.Records, want...)
	if r2.Segments != 4 {
		t.Fatalf("replayed %d segments, want 4", r2.Segments)
	}

	// Compact: everything so far collapses into the snapshot; only records
	// appended afterwards replay as records.
	snap := []byte("state-after-40")
	if err := l2.Compact(snap); err != nil {
		t.Fatalf("compact: %v", err)
	}
	names, _ := fs.List()
	for _, n := range names {
		if seq, isSnap, ok := parseName(n); ok && !isSnap && seq <= 4 {
			t.Fatalf("compaction left covered segment %s (files: %v)", n, names)
		}
	}
	tail := [][]byte{[]byte("after-compact-1"), []byte("after-compact-2")}
	for _, p := range tail {
		if err := l2.Append(p); err != nil {
			t.Fatalf("append after compact: %v", err)
		}
	}
	l2.Close()

	l3, r3 := mustOpen(t, fs, o)
	defer l3.Close()
	if !bytes.Equal(r3.Snapshot, snap) {
		t.Fatalf("snapshot = %q, want %q", r3.Snapshot, snap)
	}
	checkRecords(t, r3.Records, tail...)
}

// TestRecoveryChaosFaultModes drives the log through every injected failure
// mode on the shared chaos seed list: the fault fires at a seeded point in
// the workload, the filesystem crashes, and recovery must replay every
// acknowledged record byte-identically — at most the single in-flight,
// unacknowledged record may additionally survive (its frame happened to land
// intact). Corrupt tails truncate; nothing panics; the log stays usable.
func TestRecoveryChaosFaultModes(t *testing.T) {
	const workload = 30
	modes := []FaultMode{FaultShortWrite, FaultSyncError, FaultTornTail, FaultBitFlip}
	for _, seed := range chaosSeeds(t) {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				plan := FaultPlan{Seed: seed, Mode: mode}
				at := 2 + rng.Intn(workload-2)
				if mode == FaultSyncError {
					plan.AtSync = at
				} else {
					plan.AtWrite = at
				}
				fs := NewMemFS(plan)
				l, _ := mustOpen(t, fs, Options{})

				var acked [][]byte
				var inflight []byte
				faulted := false
				for i := 0; i < workload; i++ {
					p := rec(i)
					if err := l.Append(p); err != nil {
						faulted = true
						inflight = p
						// Fail-stop: the log is broken for good.
						if err2 := l.Append([]byte("after-fault")); err2 == nil {
							t.Fatal("append succeeded on a broken log")
						}
						break
					}
					acked = append(acked, p)
				}
				if !faulted {
					t.Fatalf("fault %s at %d never fired in %d appends", mode, at, workload)
				}
				l.Close()
				fs.Crash()

				l2, r2 := mustOpen(t, fs, Options{})
				got := r2.Records
				// Every acknowledged record, in order, byte-identical.
				if len(got) < len(acked) {
					t.Fatalf("recovered %d records, acked %d: durable data lost", len(got), len(acked))
				}
				for i := range acked {
					if !bytes.Equal(got[i], acked[i]) {
						t.Fatalf("record %d = %q, want %q", i, got[i], acked[i])
					}
				}
				// Beyond the acked prefix only the in-flight record may appear.
				switch {
				case len(got) == len(acked):
				case len(got) == len(acked)+1 && bytes.Equal(got[len(acked)], inflight):
				default:
					t.Fatalf("recovered %d records beyond %d acked; tail %q", len(got)-len(acked), len(acked), got[len(acked)])
				}
				if mode == FaultShortWrite && !r2.Truncated() {
					t.Fatal("short write left a partial frame; recovery reported no truncation")
				}

				// The recovered log must accept and persist fresh appends.
				post := []byte("post-recovery")
				if err := l2.Append(post); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				l2.Close()
				l3, r3 := mustOpen(t, fs, Options{})
				defer l3.Close()
				if n := len(r3.Records); n == 0 || !bytes.Equal(r3.Records[n-1], post) {
					t.Fatalf("post-recovery append did not survive reopen")
				}
			})
		}
	}
}

func TestWALBitRotInPlaceTruncates(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	l, _ := mustOpen(t, fs, Options{})
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := rec(i)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	l.Close()

	// Flip a bit mid-file: replay keeps the frames before it, truncates the
	// damaged frame and everything after.
	total := fs.DurableLen("wal-00000001.log")
	if err := fs.CorruptDurable("wal-00000001.log", total/2); err != nil {
		t.Fatal(err)
	}
	l2, r2 := mustOpen(t, fs, Options{})
	defer l2.Close()
	if !r2.Truncated() {
		t.Fatal("bit rot not reported as truncation")
	}
	if len(r2.Records) == 0 || len(r2.Records) >= len(want) {
		t.Fatalf("recovered %d of %d records; want a proper non-empty prefix", len(r2.Records), len(want))
	}
	for i, p := range r2.Records {
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, p, want[i])
		}
	}
	if fs.DurableLen("wal-00000001.log") >= total {
		t.Fatal("corrupt tail not physically truncated")
	}
}

func TestWALValidateHookTruncates(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	l, _ := mustOpen(t, fs, Options{})
	for _, p := range [][]byte{[]byte("good-1"), []byte("BAD"), []byte("good-2")} {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	validate := func(p []byte) error {
		if bytes.Equal(p, []byte("BAD")) {
			return fmt.Errorf("undecodable record")
		}
		return nil
	}
	l2, r2 := mustOpen(t, fs, Options{Validate: validate})
	defer l2.Close()
	if !r2.Truncated() {
		t.Fatal("rejected record not reported as truncation")
	}
	checkRecords(t, r2.Records, []byte("good-1"))
}

func TestWALIgnoresUndecodableSnapshot(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	l, _ := mustOpen(t, fs, Options{})
	var want [][]byte
	for i := 0; i < 5; i++ {
		p := rec(i)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	l.Close()
	// A half-written snapshot (crash mid-WriteFile on a filesystem without
	// atomic replace) must not shadow the segments it claims to cover.
	if err := fs.WriteFile(snapName(99), []byte("garbage, not a frame")); err != nil {
		t.Fatal(err)
	}
	l2, r2 := mustOpen(t, fs, Options{})
	defer l2.Close()
	if r2.Snapshot != nil {
		t.Fatalf("undecodable snapshot loaded: %q", r2.Snapshot)
	}
	checkRecords(t, r2.Records, want...)
	if names, _ := fs.List(); contains(names, snapName(99)) {
		t.Fatalf("undecodable snapshot not cleaned up: %v", names)
	}
}

func TestWALCompactCrashBeforeFirstAppend(t *testing.T) {
	fs := NewMemFS(FaultPlan{})
	l, _ := mustOpen(t, fs, Options{})
	if err := l.Append([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]byte("snap-state")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	fs.Crash() // nothing appended after compaction

	l2, r2 := mustOpen(t, fs, Options{})
	if !bytes.Equal(r2.Snapshot, []byte("snap-state")) || len(r2.Records) != 0 {
		t.Fatalf("recovery after compact = (%q, %d records)", r2.Snapshot, len(r2.Records))
	}
	// The post-recovery segment must be newer than the snapshot, or this
	// append would be invisible to the next replay.
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, r3 := mustOpen(t, fs, Options{})
	defer l3.Close()
	if !bytes.Equal(r3.Snapshot, []byte("snap-state")) {
		t.Fatalf("snapshot lost: %q", r3.Snapshot)
	}
	checkRecords(t, r3.Records, []byte("after"))
}

func TestWALDirFS(t *testing.T) {
	dir := t.TempDir()
	fs, err := DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := mustOpen(t, fs, Options{})
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := rec(i)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := l.Compact([]byte("on-disk-state")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, r2 := mustOpen(t, fs2, Options{})
	defer l2.Close()
	if !bytes.Equal(r2.Snapshot, []byte("on-disk-state")) {
		t.Fatalf("snapshot = %q", r2.Snapshot)
	}
	checkRecords(t, r2.Records, []byte("tail"))
	_ = want
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}
