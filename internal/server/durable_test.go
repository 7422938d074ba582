package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/wal"
)

// chaosSeeds returns the fault-plan seeds the crash-recovery suite runs
// under: a small default locally, widened in CI via CHAOS_SEEDS=1,7,13,29
// (the same knob the WAL chaos grid and core's delta parity suite use).
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 7}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// splitRows slices a table into n near-equal row batches, the shipment
// sequence every driver in this file shares so batch boundaries line up
// across original, resumed, and re-created runs.
func splitRows(tb *dataset.Table, n int) [][][]string {
	per := (tb.Len() + n - 1) / n
	var out [][][]string
	for lo := 0; lo < tb.Len(); lo += per {
		hi := min(lo+per, tb.Len())
		rows := make([][]string, 0, hi-lo)
		for _, tp := range tb.Tuples[lo:hi] {
			rows = append(rows, tp.Values)
		}
		out = append(out, rows)
	}
	return out
}

func createSession(c *client, req CreateRequest) SessionInfo {
	c.t.Helper()
	var info SessionInfo
	if code := c.do("POST", "/v1/sessions", req, &info); code != http.StatusCreated {
		c.t.Fatalf("create session: status %d", code)
	}
	return info
}

func submitBatches(c *client, id string, batches [][][]string) {
	c.t.Helper()
	for i, b := range batches {
		if code := c.do("POST", "/v1/sessions/"+id+"/tuples", TuplesRequest{Rows: b}, nil); code != http.StatusOK {
			c.t.Fatalf("submit batch %d to %s: status %d", i, id, code)
		}
	}
}

func startClean(c *client, id string) {
	c.t.Helper()
	if code := c.do("POST", "/v1/sessions/"+id+"/clean", nil, nil); code != http.StatusAccepted {
		c.t.Fatalf("clean %s: status %d", id, code)
	}
}

func pollDone(c *client, id string) SessionInfo {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st SessionInfo
		if code := c.do("GET", "/v1/sessions/"+id, nil, &st); code != http.StatusOK {
			c.t.Fatalf("poll %s: status %d", id, code)
		}
		switch st.State {
		case StateDone:
			return st
		case StateFailed:
			c.t.Fatalf("session %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("session %s never finished cleaning", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getResult(c *client, id string) ResultResponse {
	c.t.Helper()
	var res ResultResponse
	if code := c.do("GET", "/v1/sessions/"+id+"/result", nil, &res); code != http.StatusOK {
		c.t.Fatalf("result %s: status %d", id, code)
	}
	return res
}

func getRepairs(c *client, id string) RepairsResponse {
	c.t.Helper()
	var reps RepairsResponse
	if code := c.do("GET", "/v1/sessions/"+id+"/repairs", nil, &reps); code != http.StatusOK {
		c.t.Fatalf("repairs %s: status %d", id, code)
	}
	return reps
}

// driveUnderFault drives a new session, which must get the id wantID, as far
// as a failing log lets it — past the fault the log is fail-stop and every
// durable call answers 500 — and reports what was acknowledged: the create,
// how many batches, and the clean (waited for: done is served from memory
// even when its record could not be logged).
func driveUnderFault(c *client, req CreateRequest, wantID string, batches [][][]string) (created bool, acked int, cleaned bool) {
	c.t.Helper()
	var info SessionInfo
	if code := c.do("POST", "/v1/sessions", req, &info); code != http.StatusCreated {
		return false, 0, false
	}
	if info.ID != wantID {
		c.t.Fatalf("session ids drifted: %s, want %s", info.ID, wantID)
	}
	for _, rows := range batches {
		if code := c.do("POST", "/v1/sessions/"+wantID+"/tuples", TuplesRequest{Rows: rows}, nil); code != http.StatusOK {
			return true, acked, false
		}
		acked++
	}
	if code := c.do("POST", "/v1/sessions/"+wantID+"/clean", nil, nil); code != http.StatusAccepted {
		return true, acked, false
	}
	pollDone(c, wantID)
	return true, acked, true
}

// resumeSession drives a recovered session on to done from wherever the log
// left it: an open session is fed the batches past the boundary its surviving
// tuples end on and cleaned, a restarted clean is waited for, a done session
// is left alone. It returns the status found before resuming.
func resumeSession(c *client, id string, batches [][][]string) SessionInfo {
	c.t.Helper()
	var found SessionInfo
	if code := c.do("GET", "/v1/sessions/"+id, nil, &found); code != http.StatusOK {
		c.t.Fatalf("recovered session %s: status %d", id, code)
	}
	if found.State == StateOpen {
		k, rows := 0, 0
		for k < len(batches) && rows < found.Tuples {
			rows += len(batches[k])
			k++
		}
		if rows != found.Tuples {
			c.t.Fatalf("recovered tuple count %d is not a batch boundary", found.Tuples)
		}
		submitBatches(c, id, batches[k:])
		startClean(c, id)
	}
	if found.State != StateDone {
		pollDone(c, id)
	}
	return found
}

// TestServeRestartEndToEnd is the happy-path durability contract over a real
// directory: stream the hospital workload, shut down gracefully, restart on
// the same data dir, and require the completed session to re-serve its
// result and audit trail byte-identically, an open session to resume where
// it stopped, a deleted session to stay gone, and the resumed and repeated
// workloads to learn their own weights and serve the first run's bytes. The
// small SnapshotEvery forces several compactions, so replay exercises the
// snapshot-plus-tail path, not just raw records.
func TestServeRestartEndToEnd(t *testing.T) {
	dirty, rs, rulesText := hospitalFixture(t)
	want, err := core.Clean(dirty, rs, core.Options{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	batches := splitRows(dirty, 3)
	req := CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Workers: 1, Tau: 2}
	cfg := ManagerConfig{DataDir: t.TempDir(), SnapshotEvery: 4}

	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	c1 := &client{t: t, base: ts1.URL}
	if rec := srv1.Recovery(); rec == nil || rec.Records != 0 || rec.SessionsReplayed != 0 {
		t.Fatalf("fresh data dir recovered %+v", rec)
	}

	// a: a full run, the byte-identity baseline.
	a := createSession(c1, req)
	submitBatches(c1, a.ID, batches)
	startClean(c1, a.ID)
	pollDone(c1, a.ID)
	resA := getResult(c1, a.ID)
	assertResultEquals(t, resA, want.Clean)
	repsA := getRepairs(c1, a.ID)
	if len(repsA.Repairs) == 0 {
		t.Fatal("hospital run produced no repairs to audit")
	}

	// b: left open mid-stream; the restart must resume it, not lose it.
	b := createSession(c1, req)
	submitBatches(c1, b.ID, batches[:1])

	// c: closed before shutdown; its tombstone must hold forever.
	cs := createSession(c1, req)
	if code := c1.do("DELETE", "/v1/sessions/"+cs.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}

	ts1.Close()
	srv1.Shutdown() // graceful: flush + fsync + close, no tombstones

	srv2 := newTestServer(t, cfg)
	rec := srv2.Recovery()
	if rec == nil {
		t.Fatal("restart on a populated data dir reports no recovery")
	}
	if rec.SessionsReplayed != 2 || rec.SessionsTombstoned != 1 || rec.CleansRestarted != 0 {
		t.Fatalf("recovery = %+v, want 2 replayed / 1 tombstoned / 0 restarted cleans", rec)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("graceful shutdown left %d truncated bytes", rec.TruncatedBytes)
	}
	ts2 := httptest.NewServer(srv2)
	c2 := &client{t: t, base: ts2.URL}

	// The completed session re-serves byte-identically.
	if resA2 := getResult(c2, a.ID); !reflect.DeepEqual(resA, resA2) {
		t.Errorf("restored result differs:\n got %+v\nwant %+v", resA2, resA)
	}
	if repsA2 := getRepairs(c2, a.ID); !reflect.DeepEqual(repsA, repsA2) {
		t.Errorf("restored audit trail differs:\n got %+v\nwant %+v", repsA2, repsA)
	}

	// The closed session stays closed.
	if code := c2.do("GET", "/v1/sessions/"+cs.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("closed session resurrected across restart (status %d)", code)
	}

	// The open session picks up exactly where it stopped and, resumed with
	// the remaining batches, learns and serves what the uninterrupted run did.
	var bInfo SessionInfo
	if code := c2.do("GET", "/v1/sessions/"+b.ID, nil, &bInfo); code != http.StatusOK {
		t.Fatalf("restored open session: status %d", code)
	}
	if bInfo.State != StateOpen || bInfo.Tuples != len(batches[0]) {
		t.Fatalf("restored session state = %s with %d tuples, want open with %d", bInfo.State, bInfo.Tuples, len(batches[0]))
	}
	submitBatches(c2, b.ID, batches[1:])
	startClean(c2, b.ID)
	pollDone(c2, b.ID)
	resB := getResult(c2, b.ID)
	assertSameClean(t, "resumed session", resB, resA)

	// /stats surfaces the recovery summary.
	var stats StatsResponse
	if code := c2.do("GET", "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Recovery == nil || stats.Recovery.SessionsReplayed != 2 {
		t.Errorf("stats recovery = %+v, want the startup summary", stats.Recovery)
	}

	// Double close after replay: the first wins, the second is a clean 404.
	if code := c2.do("DELETE", "/v1/sessions/"+a.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("close replayed session: status %d", code)
	}
	if code := c2.do("DELETE", "/v1/sessions/"+a.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("double close after replay: status %d, want 404", code)
	}

	// Repeat workload on the restarted server: a brand-new session over the
	// same rules, options and table.
	d := createSession(c2, req)
	submitBatches(c2, d.ID, batches)
	startClean(c2, d.ID)
	pollDone(c2, d.ID)
	assertSameClean(t, "repeat session after restart", getResult(c2, d.ID), resA)

	ts2.Close()
	srv2.Shutdown()

	// Third generation: tombstones written after a replay hold too, and the
	// twice-restored result is still byte-identical.
	srv3 := newTestServer(t, cfg)
	defer srv3.Shutdown()
	if rec := srv3.Recovery(); rec.SessionsReplayed != 2 || rec.SessionsTombstoned != 2 {
		t.Fatalf("second restart recovery = %+v, want 2 replayed / 2 tombstoned", rec)
	}
	ts3 := httptest.NewServer(srv3)
	defer ts3.Close()
	c3 := &client{t: t, base: ts3.URL}
	for _, id := range []string{a.ID, cs.ID} {
		if code := c3.do("GET", "/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
			t.Errorf("session %s resurrected on the second restart (status %d)", id, code)
		}
	}
	if resB2 := getResult(c3, b.ID); !reflect.DeepEqual(resB, resB2) {
		t.Errorf("twice-restored result differs:\n got %+v\nwant %+v", resB2, resB)
	}
}

// TestServeCrashRecoveryChaos drives the serving stack over the
// fault-injecting in-memory filesystem and hard-crashes it mid-workload
// under every fault mode: short writes, fsync errors, torn tails, and
// bit-flipped frames. The invariant is the WAL contract seen from the API:
// every acknowledged mutation survives the crash — the completed session
// re-serves byte-identically, the deleted session never resurrects, no
// acked tuple batch is lost — and whatever prefix the session under fire
// recovered to can be driven to the uninterrupted run's result and trail.
func TestServeCrashRecoveryChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos grid is not short")
	}
	dirty, rs, rulesText := hospitalFixture(t)
	want, err := core.Clean(dirty, rs, core.Options{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	batches := splitRows(dirty, 3)
	req := CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Workers: 1, Tau: 2}

	modes := []wal.FaultMode{wal.FaultNone, wal.FaultShortWrite, wal.FaultSyncError, wal.FaultTornTail, wal.FaultBitFlip}
	for _, mode := range modes {
		for _, seed := range chaosSeeds(t) {
			t.Run(fmt.Sprintf("%v/seed=%d", mode, seed), func(t *testing.T) {
				t.Parallel()
				// Record appends, in order: the doomed session's create and
				// tombstone (writes 1-2), then session a end to end (3-8:
				// create, three batches, clean start, completion). The trigger
				// lands inside session b's range (9-14, its completion record
				// included), so everything before it is acked and must survive
				// any crash.
				at := 9 + int(seed%6)
				fs := wal.NewMemFS(wal.FaultPlan{Seed: seed, Mode: mode, AtWrite: at, AtSync: at})
				cfg := ManagerConfig{WALFS: fs, SnapshotEvery: 1 << 20}
				srv1 := newTestServer(t, cfg)
				ts1 := httptest.NewServer(srv1)
				c1 := &client{t: t, base: ts1.URL}

				// Deleted before the fault window: the acked tombstone must
				// hold through every crash.
				doomed := createSession(c1, CreateRequest{Rules: testRules, Attrs: []string{"CT", "ST"}, Workers: 1})
				if code := c1.do("DELETE", "/v1/sessions/"+doomed.ID, nil, nil); code != http.StatusNoContent {
					t.Fatalf("delete doomed session: status %d", code)
				}

				// Session a: a fully acked run, the byte-identity baseline.
				a := createSession(c1, req)
				submitBatches(c1, a.ID, batches)
				startClean(c1, a.ID)
				pollDone(c1, a.ID)
				resA := getResult(c1, a.ID)
				repsA := getRepairs(c1, a.ID)

				// Session b: the one under fire. Drive it best-effort and
				// record which mutations were acknowledged.
				const bID = "s-000003" // third create on this manager
				created, acked, cleanAcked := driveUnderFault(c1, req, bID, batches)
				var resB *ResultResponse
				if cleanAcked {
					r := getResult(c1, bID)
					resB = &r
				}

				// Crash: volatile bytes are dropped (or torn, mode depending)
				// and every handle dies; then reboot over the survivors.
				ts1.Close()
				fs.Crash()
				srv1.Shutdown()

				srv2, err := New(cfg)
				if err != nil {
					t.Fatalf("restart after %v crash: %v", mode, err)
				}
				defer srv2.Shutdown()
				rec := srv2.Recovery()
				if rec == nil {
					t.Fatal("restart reports no recovery summary")
				}
				if mode == wal.FaultShortWrite && rec.TruncatedBytes == 0 {
					t.Error("short write durably persisted half a frame, but recovery reports no truncation")
				}
				ts2 := httptest.NewServer(srv2)
				defer ts2.Close()
				c2 := &client{t: t, base: ts2.URL}

				if code := c2.do("GET", "/v1/sessions/"+doomed.ID, nil, nil); code != http.StatusNotFound {
					t.Errorf("deleted session resurrected after %v crash (status %d)", mode, code)
				}
				if resA2 := getResult(c2, a.ID); !reflect.DeepEqual(resA, resA2) {
					t.Errorf("recovered result for %s not byte-identical:\n got %+v\nwant %+v", a.ID, resA2, resA)
				}
				if repsA2 := getRepairs(c2, a.ID); !reflect.DeepEqual(repsA, repsA2) {
					t.Errorf("recovered audit trail for %s not identical", a.ID)
				}

				// Session b recovered to its acked prefix (plus at most the
				// one in-flight record a torn tail may have completed).
				// Wherever it landed, drive it on: it must learn and serve
				// what the uninterrupted session a did, trail included.
				finalID, restoredDone := bID, false
				if code := c2.do("GET", "/v1/sessions/"+bID, nil, nil); code == http.StatusNotFound {
					if created {
						t.Fatalf("acked session %s lost after %v crash", bID, mode)
					}
					// The create never acked; run the workload from scratch.
					finalID = createSession(c2, req).ID
					resumeSession(c2, finalID, batches)
				} else {
					info := resumeSession(c2, bID, batches)
					ackedRows := 0
					for _, rows := range batches[:acked] {
						ackedRows += len(rows)
					}
					if info.Tuples < ackedRows {
						t.Fatalf("acked rows lost: recovered %d tuples, acked %d", info.Tuples, ackedRows)
					}
					restoredDone = info.State == StateDone
				}
				final := getResult(c2, finalID)
				assertResultEquals(t, final, want.Clean)
				assertSameClean(t, "recovered run", final, resA)
				if trail := getRepairs(c2, finalID); !reflect.DeepEqual(trail.Repairs, repsA.Repairs) {
					t.Errorf("recovered run's audit trail has %d repairs, the uninterrupted run's %d", len(trail.Repairs), len(repsA.Repairs))
				}
				// When the completion record itself survived (no clean was
				// restarted), the response must be byte-identical to the one
				// served before the crash.
				if resB != nil && restoredDone && rec.CleansRestarted == 0 {
					if !reflect.DeepEqual(*resB, final) {
						t.Errorf("logged result not byte-identical to the pre-crash response:\n got %+v\nwant %+v", final, *resB)
					}
				}
			})
		}
	}
}

// TestCleanCompletionAtomic sweeps an fsync failure across every sync of one
// session's life — create, three batches, clean start, completion — and
// crashes after each. A completed clean is one record, so after the restart
// the session is either not done, and finishes to the reference result, or
// done with the reference result and the reference audit trail: never a done
// session whose trail was lost between two records.
func TestCleanCompletionAtomic(t *testing.T) {
	dirty, _, rulesText := hospitalFixture(t)
	batches := splitRows(dirty, 3)
	req := CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Workers: 1, Tau: 2}

	// The reference: the same session on a server without a log.
	ref := newTestServer(t, ManagerConfig{})
	defer ref.Shutdown()
	tsRef := httptest.NewServer(ref)
	defer tsRef.Close()
	cRef := &client{t: t, base: tsRef.URL}
	refID := createSession(cRef, req).ID
	resumeSession(cRef, refID, batches)
	wantRes, wantTrail := getResult(cRef, refID), getRepairs(cRef, refID)
	if len(wantTrail.Repairs) == 0 {
		t.Fatal("hospital run produced no repairs to audit")
	}

	// The completion is a marker, not the result: the log grows by the same
	// few bytes however large the table. frameLen is how much one record
	// grows a log.
	const segment, maxCompletion = "wal-00000001.log", 128
	frameLen := func(r Record) int64 {
		t.Helper()
		fs := wal.NewMemFS(wal.FaultPlan{})
		lg, _, err := wal.Open(fs, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer lg.Close()
		frame, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		before := fs.DurableLen(segment)
		if err := lg.Append(frame); err != nil {
			t.Fatal(err)
		}
		return fs.DurableLen(segment) - before
	}

	const life = 6 // syncs in the session's life; life+1 never fires (control)
	for at := 1; at <= life+1; at++ {
		t.Run(fmt.Sprintf("sync=%d", at), func(t *testing.T) {
			fs := wal.NewMemFS(wal.FaultPlan{Mode: wal.FaultSyncError, AtSync: at})
			cfg := ManagerConfig{WALFS: fs}
			srv1 := newTestServer(t, cfg)
			ts1 := httptest.NewServer(srv1)
			c1 := &client{t: t, base: ts1.URL}

			const id = "s-000001"
			if at > life {
				// The control makes driveUnderFault's calls one at a time, to
				// read the log's length before the clean.
				createSession(c1, req)
				submitBatches(c1, id, batches)
				before := fs.DurableLen(segment)
				startClean(c1, id)
				pollDone(c1, id)
				if grew := fs.DurableLen(segment) - before - frameLen(recCleanStart{ID: id}); grew >= maxCompletion {
					t.Errorf("the completion grew the log by %d bytes, want under %d", grew, maxCompletion)
				}
			} else {
				driveUnderFault(c1, req, id, batches)
			}
			ts1.Close()
			fs.Crash()
			srv1.Shutdown()

			srv2 := newTestServer(t, cfg)
			defer srv2.Shutdown()
			ts2 := httptest.NewServer(srv2)
			defer ts2.Close()
			c2 := &client{t: t, base: ts2.URL}
			rec := srv2.Recovery()

			finalID := id
			if code := c2.do("GET", "/v1/sessions/"+id, nil, nil); code == http.StatusNotFound {
				if at != 1 {
					t.Fatalf("acked session lost (fault at sync %d)", at)
				}
				finalID = createSession(c2, req).ID // the create itself never became durable
			}
			found := resumeSession(c2, finalID, batches)
			// A clean the recovery restarted may already be done by the time
			// resumeSession looks; only a session no clean was restarted for
			// can have been restored done.
			if at <= life && found.State == StateDone && rec.CleansRestarted == 0 {
				t.Errorf("session restored done although sync %d of %d failed", at, life)
			}
			if at == life && rec.CleansRestarted != 1 {
				t.Errorf("completion record lost, but recovery restarted %d cleans, want 1", rec.CleansRestarted)
			}
			if at > life && (found.State != StateDone || rec.Records != life || rec.CleansRestarted != 0) {
				t.Errorf("fault-free life: restored %s from %d records with %d cleans restarted, want done from %d records",
					found.State, rec.Records, rec.CleansRestarted, life)
			}
			assertSameClean(t, "recovered session", getResult(c2, finalID), wantRes)
			if trail := getRepairs(c2, finalID); !reflect.DeepEqual(trail.Repairs, wantTrail.Repairs) {
				t.Errorf("recovered session (found %s) serves %d repairs, want the reference trail of %d",
					found.State, len(trail.Repairs), len(wantTrail.Repairs))
			}
		})
	}
}

// sessionLog is a slog.Handler that forwards "<message> <session id>" of
// every record to a channel: how a test learns that a session's clean
// goroutine, which nothing joins, has ended and which way.
type sessionLog chan string

func (sessionLog) Enabled(context.Context, slog.Level) bool { return true }
func (sessionLog) WithAttrs([]slog.Attr) slog.Handler       { panic("unused") }
func (sessionLog) WithGroup(string) slog.Handler            { panic("unused") }
func (h sessionLog) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "session" {
			h <- r.Message + " " + a.Value.String()
		}
		return a.Key != "session"
	})
	return nil
}

// TestCloseWhileCleaning: a DELETE that lands while the clean is running is
// acknowledged, and the clean drops its result when it finds the session
// closed: nothing is published, no completion record follows the tombstone
// into the log, and a restart does not bring the session back.
func TestCloseWhileCleaning(t *testing.T) {
	dirty, _, rulesText := carFixture(t, 6000, 5) // a clean of ≈ 50 ms
	batches := splitRows(dirty, 3)
	// Room for every line the session logs in its life, so the handler never
	// blocks the server on a test that has stopped listening.
	events := make(sessionLog, 256)
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(events))

	fs := wal.NewMemFS(wal.FaultPlan{})
	cfg := ManagerConfig{WALFS: fs}
	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	c1 := &client{t: t, base: ts1.URL}
	id := createSession(c1, CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs()}).ID
	submitBatches(c1, id, batches)
	startClean(c1, id)
	var st SessionInfo
	if code := c1.do("GET", "/v1/sessions/"+id, nil, &st); code != http.StatusOK || st.State != StateCleaning {
		t.Fatalf("status right after the clean started: %d, state %q; want cleaning", code, st.State)
	}
	if code := c1.do("DELETE", "/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("DELETE while cleaning: status %d, want 204", code)
	}
	deadline := time.After(30 * time.Second)
	for ended := false; !ended; {
		select {
		case ev := <-events:
			switch ev {
			case "server: clean dropped, session closed " + id:
				ended = true
			case "server: clean done " + id, "server: clean failed " + id:
				t.Fatalf("the closed session's clean ended with %q, want it dropped", ev)
			}
		case <-deadline:
			t.Fatal("the closed session's clean never ended")
		}
	}
	ts1.Close()
	srv1.Shutdown()

	srv2 := newTestServer(t, cfg)
	defer srv2.Shutdown()
	rec := srv2.Recovery()
	// create, the batches, clean start, tombstone — and no completion.
	if want := 3 + len(batches); rec.Records != want || rec.SessionsReplayed != 0 || rec.SessionsTombstoned != 1 || rec.CleansRestarted != 0 {
		t.Fatalf("recovery = %+v, want %d records, one tombstoned session, nothing replayed or restarted", rec, want)
	}
	if _, err := srv2.Manager().Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("closed session restored after the restart: %v", err)
	}
}

// TestReplayOldLogWithWeights: a data directory written by the build that
// still had the model cache (testdata/wal-pr19: generated by running that
// build's server over a real directory) keeps opening. The snapshot carries
// session Z done, with its trail beside the result and a weight vector in
// replayState.Weights; the segment after it logs session A as create, two
// batches, clean start, done, repairs, weights, then session B's create and
// first batch. The weight records are decoded and ignored — an unregistered
// kind would fail the Validate hook and truncate the log at A's vector,
// dropping B — and the next compaction writes a snapshot without the vectors.
func TestReplayOldLogWithWeights(t *testing.T) {
	const (
		fixture = "testdata/wal-pr19"
		snapZ   = "wal-00000001.snap"
		segAB   = "wal-00000002.log"
		vectorZ = "tau=1,metric=levenshtein" // fingerprint: only a weight vector carries it
		vectorA = "tau=2,metric=levenshtein"
	)
	dir := t.TempDir()
	for _, name := range []string{snapZ, segAB} {
		b, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	holds := func(name, what string) bool {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Contains(b, []byte(what))
	}
	if !holds(segAB, "recWeights") || !holds(segAB, vectorA) || !holds(snapZ, vectorZ) {
		t.Fatal("fixture no longer carries the weight vectors it exists for")
	}
	// It was also written while a session ran on the executor: its create
	// requests and completion records carry fields both have since lost, and
	// must replay all the same.
	for _, removed := range []string{"WorkersLost", "Plan", "Seed"} {
		if !holds(segAB, removed) || !holds(snapZ, removed) {
			t.Fatalf("fixture no longer carries the removed field %s", removed)
		}
	}
	var want struct {
		ZResult  ResultResponse  `json:"z_result"`
		ZRepairs RepairsResponse `json:"z_repairs"`
		AResult  ResultResponse  `json:"a_result"`
		ARepairs RepairsResponse `json:"a_repairs"`
	}
	b, err := os.ReadFile(filepath.Join(fixture, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	const z, a, open = "s-000001", "s-000002", "s-000003"
	checkDone := func(c *client) {
		t.Helper()
		for _, s := range []struct {
			id    string
			res   ResultResponse
			trail RepairsResponse
		}{{z, want.ZResult, want.ZRepairs}, {a, want.AResult, want.ARepairs}} {
			if got := getResult(c, s.id); !reflect.DeepEqual(got, s.res) {
				t.Errorf("%s result differs from what the old build served:\n got %+v\nwant %+v", s.id, got, s.res)
			}
			if got := getRepairs(c, s.id); !reflect.DeepEqual(got, s.trail) || len(got.Repairs) == 0 {
				t.Errorf("%s audit trail differs from what the old build served:\n got %+v\nwant %+v", s.id, got, s.trail)
			}
		}
	}

	// SnapshotEvery 1: the first append after the replay compacts.
	cfg := ManagerConfig{DataDir: dir, SnapshotEvery: 1}
	srv1 := newTestServer(t, cfg)
	rec := srv1.Recovery()
	if rec.TruncatedBytes != 0 || rec.SessionsReplayed != 3 || rec.Records != 9 || rec.CleansRestarted != 0 {
		t.Fatalf("recovery of the old log = %+v, want 3 sessions from 9 records, nothing truncated", rec)
	}
	ts1 := httptest.NewServer(srv1)
	c1 := &client{t: t, base: ts1.URL}
	checkDone(c1)
	var info SessionInfo
	if code := c1.do("GET", "/v1/sessions/"+open, nil, &info); code != http.StatusOK || info.State != StateOpen || info.Tuples != 5 {
		t.Fatalf("session logged after the weight vector: status %d, %+v; want open with 5 tuples", code, info)
	}
	submitBatches(c1, open, [][][]string{{{"boaz", "al"}}})
	ts1.Close()
	srv1.Shutdown()

	names, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(names) != 1 || filepath.Base(names[0]) == snapZ {
		t.Fatalf("snapshots after the forced compaction: %v (%v), want one new file", names, err)
	}
	for _, gone := range []string{vectorZ, vectorA, "recWeights", "Summaries"} {
		if holds(filepath.Base(names[0]), gone) {
			t.Errorf("the new snapshot still carries %q", gone)
		}
	}

	// The compacted directory serves the same sessions.
	srv2 := newTestServer(t, cfg)
	defer srv2.Shutdown()
	if rec := srv2.Recovery(); rec.TruncatedBytes != 0 || rec.SessionsReplayed != 3 {
		t.Fatalf("recovery of the compacted log = %+v, want 3 sessions, nothing truncated", rec)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := &client{t: t, base: ts2.URL}
	checkDone(c2)
	if code := c2.do("GET", "/v1/sessions/"+open, nil, &info); code != http.StatusOK || info.State != StateOpen || info.Tuples != 6 {
		t.Fatalf("open session after compaction: status %d, %+v; want open with 6 tuples", code, info)
	}
}

// TestRollbackGoldenParity: the audit trail's old values are exactly the
// dirty input cells, and rollback restores the byte-exact pre-repair table —
// including across a restart, since the rollback itself is logged.
func TestRollbackGoldenParity(t *testing.T) {
	dirty, _, rulesText := hospitalFixture(t)
	batches := splitRows(dirty, 3)
	req := CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Workers: 1, Tau: 2}
	cfg := ManagerConfig{DataDir: t.TempDir()}

	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	c := &client{t: t, base: ts.URL}
	s := createSession(c, req)
	submitBatches(c, s.ID, batches)
	startClean(c, s.ID)
	pollDone(c, s.ID)

	reps := getRepairs(c, s.ID)
	if len(reps.Repairs) == 0 {
		t.Fatal("hospital run produced no repairs")
	}
	if reps.Total != len(reps.Repairs) {
		t.Errorf("repairs report a total of %d, trail has %d", reps.Total, len(reps.Repairs))
	}
	attrIdx := make(map[string]int)
	for i, a := range dirty.Schema.Attrs() {
		attrIdx[a] = i
	}
	attributed := 0
	for i, r := range reps.Repairs {
		if i > 0 && r.Tuple < reps.Repairs[i-1].Tuple {
			t.Fatalf("repair trail out of order at %d: tuple %d after %d", i, r.Tuple, reps.Repairs[i-1].Tuple)
		}
		j, ok := attrIdx[r.Attr]
		if !ok {
			t.Fatalf("repair %d names unknown attribute %q", i, r.Attr)
		}
		if got := dirty.Tuples[r.Tuple].Values[j]; got != r.Old {
			t.Errorf("repair %d old value %q, dirty cell is %q", i, r.Old, got)
		}
		if r.New == r.Old {
			t.Errorf("repair %d is a no-op (%q)", i, r.Old)
		}
		if r.Rule != "" {
			attributed++
			if r.Weight <= 0 {
				t.Errorf("repair %d attributed to %s with non-positive weight %v", i, r.Rule, r.Weight)
			}
		}
	}
	if attributed == 0 {
		t.Error("no repair carries a rule attribution")
	}

	// Rollback: the restored table is the dirty input, cell for cell.
	var rb RollbackResponse
	if code := c.do("POST", "/v1/sessions/"+s.ID+"/rollback", nil, &rb); code != http.StatusOK {
		t.Fatalf("rollback: status %d", code)
	}
	if rb.Reverted != len(reps.Repairs) {
		t.Errorf("rollback reverted %d repairs, trail has %d", rb.Reverted, len(reps.Repairs))
	}
	if len(rb.Rows) != dirty.Len() {
		t.Fatalf("rollback returned %d rows, input had %d", len(rb.Rows), dirty.Len())
	}
	for i, tp := range dirty.Tuples {
		if rb.IDs[i] != tp.ID {
			t.Fatalf("rollback row %d: id %d, want %d", i, rb.IDs[i], tp.ID)
		}
		for j, v := range tp.Values {
			if rb.Rows[i][j] != v {
				t.Fatalf("rollback row %d col %d: %q, want the dirty input %q", i, j, rb.Rows[i][j], v)
			}
		}
	}

	// The result endpoint now serves the restored table, flagged.
	res := getResult(c, s.ID)
	if !res.RolledBack {
		t.Error("result after rollback not flagged rolled_back")
	}
	for i, tp := range dirty.Tuples {
		for j, v := range tp.Values {
			if res.Rows[i][j] != v {
				t.Fatalf("rolled-back result row %d col %d: %q, want %q", i, j, res.Rows[i][j], v)
			}
		}
	}

	// Idempotent: a second rollback is the same answer, not an error.
	var rb2 RollbackResponse
	if code := c.do("POST", "/v1/sessions/"+s.ID+"/rollback", nil, &rb2); code != http.StatusOK {
		t.Fatalf("second rollback: status %d", code)
	}
	if !reflect.DeepEqual(rb, rb2) {
		t.Error("second rollback differs from the first")
	}

	// The rollback is durable: a restart re-serves the restored table.
	ts.Close()
	srv.Shutdown()
	srv2 := newTestServer(t, cfg)
	defer srv2.Shutdown()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := &client{t: t, base: ts2.URL}
	if res2 := getResult(c2, s.ID); !reflect.DeepEqual(res, res2) {
		t.Errorf("rolled-back result not byte-identical across restart:\n got %+v\nwant %+v", res2, res)
	}
	reps2 := getRepairs(c2, s.ID)
	if !reps2.RolledBack {
		t.Error("restored audit trail not flagged rolled_back")
	}
	if !reflect.DeepEqual(reps.Repairs, reps2.Repairs) {
		t.Error("restored audit trail differs")
	}
}

// TestEvictionTombstoneNoResurrection: an idle eviction logs its tombstone
// before the session disappears, so even a hard crash immediately after
// cannot resurrect it; a graceful shutdown by contrast writes no tombstones
// and resumes its sessions; and an eviction whose tombstone cannot be made
// durable is not acknowledged — the session stays.
func TestEvictionTombstoneNoResurrection(t *testing.T) {
	fs := wal.NewMemFS(wal.FaultPlan{})
	cfg := ManagerConfig{WALFS: fs, IdleTimeout: 50 * time.Millisecond, SweepInterval: time.Hour}

	m := newTestManager(t, cfg)
	s, err := m.Create(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	if n := m.EvictIdle(time.Now().Add(time.Second)); n != 1 {
		t.Fatalf("EvictIdle = %d, want 1", n)
	}
	fs.Crash()
	m.Shutdown()

	m2 := newTestManager(t, cfg)
	rec := m2.Recovery()
	if rec.SessionsTombstoned != 1 || rec.SessionsReplayed != 0 {
		t.Fatalf("recovery = %+v, want 1 tombstoned / 0 replayed", rec)
	}
	if _, err := m2.Get(s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted session resurrected after crash: %v", err)
	}

	// Graceful shutdown resumes sessions (no tombstones written).
	s2, err := m2.Create(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	m2.Shutdown()
	m3 := newTestManager(t, cfg)
	if rec := m3.Recovery(); rec.SessionsReplayed != 1 {
		t.Fatalf("recovery after graceful shutdown = %+v, want 1 replayed", rec)
	}
	if _, err := m3.Get(s2.ID); err != nil {
		t.Fatalf("graceful shutdown lost session %s: %v", s2.ID, err)
	}

	// Fail-stop eviction: the create is append 1 (write+sync 1), the
	// eviction tombstone is sync 2 — scripted to fail, so the eviction must
	// not be acknowledged and the session must survive.
	fsBad := wal.NewMemFS(wal.FaultPlan{Mode: wal.FaultSyncError, AtSync: 2})
	m4 := newTestManager(t, ManagerConfig{WALFS: fsBad, IdleTimeout: 50 * time.Millisecond, SweepInterval: time.Hour})
	s4, err := m4.Create(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	if n := m4.EvictIdle(time.Now().Add(time.Second)); n != 0 {
		t.Fatalf("eviction acknowledged without a durable tombstone (%d)", n)
	}
	if _, err := m4.Get(s4.ID); err != nil {
		t.Fatalf("session evicted though its tombstone never hit disk: %v", err)
	}
}

// oldCreateRecord is encodeRecord(recCreate{…}) as produced by the build
// before CreateRequest lost its Materialize and DisablePlanner fields (the
// record carries both, set to true): a frame sitting in the WAL of any
// deployment that ever created a session with "materialize" or
// "disable_planner" set.
const oldCreateRecord = "" +
	"611000226d6c6e636c65616e2f696e7465726e616c2f7365727665722e726563" +
	"4372656174657f0301010972656343726561746501ff8000010401024944010c" +
	"00010352657101ff8200010743726561746564010400010552756e4944010c00" +
	"0000ffbbff810301010d4372656174655265717565737401ff8200010c010552" +
	"756c6573010c000105417474727301ff84000107576f726b6572730104000109" +
	"5472616e73706f7274010c000109426174636853697a65010400010453656564" +
	"010400010354617501040001064d6574726963010c00010e4b6565704475706c" +
	"696361746573010200010e44697361626c65506c616e6e6572010200010b4d61" +
	"74657269616c697a65010200010c467265736857656967687473010200000016" +
	"ff83020101085b5d737472696e6701ff8400010c00003fff803c0108732d3030" +
	"3030303701010a46443a2041202d3e2042010201410142010404040301010101" +
	"010001f82f2f39fc6c540000010772756e2d6f6c6400"

// TestReplayCreateWithRemovedField: old WALs must keep opening. gob matches
// fields by name and skips the ones the receiver no longer has, so a logged
// create that still carries CreateRequest.Materialize and .DisablePlanner
// replays into today's request with every surviving field intact.
func TestReplayCreateWithRemovedField(t *testing.T) {
	frame, err := hex.DecodeString(oldCreateRecord)
	if err != nil {
		t.Fatal(err)
	}
	for _, removed := range []string{"Materialize", "DisablePlanner"} {
		if !bytes.Contains(frame, []byte(removed)) {
			t.Fatalf("fixture no longer carries the removed field %s", removed)
		}
	}
	rec, err := decodeRecord(frame)
	if err != nil {
		t.Fatalf("old create record no longer decodes: %v", err)
	}
	want := recCreate{
		ID:      "s-000007",
		Req:     CreateRequest{Rules: "FD: A -> B", Attrs: []string{"A", "B"}, Workers: 2, Tau: 2, FreshWeights: true},
		Created: 1700000000000000000,
		RunID:   "run-old",
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("old create record decoded as\n %#v\nwant\n %#v", rec, want)
	}
	st := newReplayState()
	st.apply(rec)
	if snap := st.Sessions["s-000007"]; snap == nil || !reflect.DeepEqual(snap.Req, want.Req) || st.Seq != 7 {
		t.Errorf("replay of the old create left %+v (seq %d)", snap, st.Seq)
	}
}

// TestCreateUnknownMetric: a create naming a metric that does not exist is
// 422 invalid and logs nothing, so no restart can bring the session back; a
// create record logged before that check existed — which was acknowledged
// and cleaned under Levenshtein — still restores, and still cleans exactly
// as a Levenshtein session does.
func TestCreateUnknownMetric(t *testing.T) {
	dirty, _, rulesText := hospitalFixture(t)
	batches := splitRows(dirty, 2)
	req := CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Tau: 2}
	// cleaned uploads the fixture to session id on srv, cleans it, and
	// returns version 1's rows, ids and stats.
	cleaned := func(srv *Server, id string) ResultResponse {
		t.Helper()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		c := &client{t: t, base: ts.URL}
		submitBatches(c, id, batches)
		startClean(c, id)
		pollDone(c, id)
		res := getResult(c, id)
		return ResultResponse{Rows: res.Rows, IDs: res.IDs, Stats: res.Stats}
	}
	// cleanedAs creates a session under metric on a fresh, volatile server
	// and returns what cleaned makes of it.
	cleanedAs := func(metric string) ResultResponse {
		t.Helper()
		srv := newTestServer(t, ManagerConfig{})
		defer srv.Shutdown()
		r := req
		r.Metric = metric
		s, err := srv.Manager().Create(r)
		if err != nil {
			t.Fatal(err)
		}
		return cleaned(srv, s.ID)
	}

	fs := wal.NewMemFS(wal.FaultPlan{})
	srv := newTestServer(t, ManagerConfig{WALFS: fs})
	ts := httptest.NewServer(srv)
	c := &client{t: t, base: ts.URL}
	misspelled := req
	misspelled.Metric = "cosin"
	code, env := doEnvelope(c, "POST", "/v1/sessions", misspelled)
	if code != http.StatusUnprocessableEntity || env.Error.Code != codeInvalid ||
		!strings.Contains(env.Error.Message, "levenshtein") || !strings.Contains(env.Error.Message, "cosine") {
		t.Fatalf("create with metric %q: status %d, %+v; want 422 invalid naming the valid metrics", misspelled.Metric, code, env)
	}
	ts.Close()
	srv.Shutdown()
	srv = newTestServer(t, ManagerConfig{WALFS: fs})
	if rec := srv.Recovery(); rec.Records != 0 || rec.SessionsReplayed != 0 {
		t.Fatalf("recovery after a rejected create = %+v, want an empty log", rec)
	}
	srv.Shutdown()

	// The record as a build without the check logged it.
	fs = wal.NewMemFS(wal.FaultPlan{})
	lg, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encodeRecord(recCreate{ID: "s-000001", Req: misspelled, Created: 1700000000000000000, RunID: "run-old"})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	srv = newTestServer(t, ManagerConfig{WALFS: fs})
	defer srv.Shutdown()
	if rec := srv.Recovery(); rec.SessionsReplayed != 1 || rec.SessionsFailed != 0 {
		t.Fatalf("recovery of the logged %q create = %+v, want it replayed", misspelled.Metric, rec)
	}
	got := cleaned(srv, "s-000001")

	lev := cleanedAs("levenshtein")
	if !reflect.DeepEqual(got, lev) {
		t.Errorf("restored %q session does not clean as Levenshtein:\n got %+v\nwant %+v", misspelled.Metric, got.Stats, lev.Stats)
	}
	if reflect.DeepEqual(cleanedAs("cosine"), lev) {
		t.Error("cosine and Levenshtein clean the fixture identically; the comparison above proves nothing")
	}
}

// TestCreateNegativeTau: a create asking for τ < 0 is 422 invalid and logs
// nothing; a create record logged before that check existed still restores.
func TestCreateNegativeTau(t *testing.T) {
	dirty, _, rulesText := hospitalFixture(t)
	req := CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Tau: -3}
	fs := wal.NewMemFS(wal.FaultPlan{})
	srv := newTestServer(t, ManagerConfig{WALFS: fs})
	ts := httptest.NewServer(srv)
	c := &client{t: t, base: ts.URL}
	code, env := doEnvelope(c, "POST", "/v1/sessions", req)
	if code != http.StatusUnprocessableEntity || env.Error.Code != codeInvalid || !strings.Contains(env.Error.Message, "tau") {
		t.Fatalf("create with tau %d: status %d, %+v; want 422 invalid naming tau", req.Tau, code, env)
	}
	if _, err := srv.Manager().Create(req); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Manager.Create with tau %d = %v, want ErrInvalid", req.Tau, err)
	}
	ts.Close()
	srv.Shutdown()
	srv = newTestServer(t, ManagerConfig{WALFS: fs})
	if rec := srv.Recovery(); rec.Records != 0 || rec.SessionsReplayed != 0 {
		t.Fatalf("recovery after a rejected create = %+v, want an empty log", rec)
	}
	srv.Shutdown()

	fs = wal.NewMemFS(wal.FaultPlan{})
	lg, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encodeRecord(recCreate{ID: "s-000001", Req: req, Created: 1700000000000000000, RunID: "run-old"})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(frame); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	srv = newTestServer(t, ManagerConfig{WALFS: fs})
	defer srv.Shutdown()
	if rec := srv.Recovery(); rec.SessionsReplayed != 1 || rec.SessionsFailed != 0 {
		t.Fatalf("recovery of a logged tau %d create = %+v, want it replayed", req.Tau, rec)
	}
}

// TestRestoreFailureVisible: a logged session the engine cannot rebuild —
// here a done session whose logged batch holds a row of the wrong width —
// fails its restore alone. The other done session in the log is re-derived
// and serves what a session never restarted serves, with the logged wall
// time; the failed one answers 404, is counted in SessionsFailed and the
// summary's string, and is logged with its id.
func TestRestoreFailureVisible(t *testing.T) {
	dirty, _, rulesText := hospitalFixture(t)
	batches := splitRows(dirty, 2)
	req := CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Tau: 2}

	ref := newTestServer(t, ManagerConfig{})
	defer ref.Shutdown()
	tsRef := httptest.NewServer(ref)
	defer tsRef.Close()
	cRef := &client{t: t, base: tsRef.URL}
	refID := createSession(cRef, req).ID
	resumeSession(cRef, refID, batches)
	wantRes, wantTrail := getResult(cRef, refID), getRepairs(cRef, refID)

	const good, bad, wallMS = "s-000001", "s-000002", 42
	badRows := [][]string{batches[0][0], append(append([]string(nil), batches[0][1]...), "extra")}
	var recs []Record
	for _, s := range []struct {
		id      string
		batches [][][]string
	}{{good, batches}, {bad, [][][]string{badRows}}} {
		recs = append(recs, recCreate{ID: s.id, Req: req, Created: 1700000000000000000})
		for _, rows := range s.batches {
			recs = append(recs, recBatch{ID: s.id, Rows: rows})
		}
		recs = append(recs, recCleanStart{ID: s.id}, recCleanDone{ID: s.id, WallMS: wallMS})
	}
	fs := wal.NewMemFS(wal.FaultPlan{})
	lg, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		frame, err := encodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Append(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	events := make(sessionLog, 256)
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(events))
	srv := newTestServer(t, ManagerConfig{WALFS: fs})
	defer srv.Shutdown()
	rec := srv.Recovery()
	if rec.SessionsReplayed != 1 || rec.SessionsFailed != 1 || rec.CleansRestarted != 0 {
		t.Fatalf("recovery = %+v, want one session replayed, one failed, no clean restarted", rec)
	}
	if !strings.Contains(rec.String(), "failed=1") {
		t.Errorf("recovery summary %q does not report the failed session", rec.String())
	}
	logged := false
	for len(events) > 0 {
		logged = logged || <-events == "server: session not restored "+bad
	}
	if !logged {
		t.Errorf("the failed restore of %s was not logged", bad)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}
	res := getResult(c, good)
	assertSameClean(t, "restored session", res, wantRes)
	if res.WallMS != wallMS {
		t.Errorf("restored session serves wall_ms %d, want the logged %d", res.WallMS, wallMS)
	}
	if trail := getRepairs(c, good); !reflect.DeepEqual(trail.Repairs, wantTrail.Repairs) {
		t.Errorf("restored session serves %d repairs, want the reference trail of %d", len(trail.Repairs), len(wantTrail.Repairs))
	}
	if code := c.do("GET", "/v1/sessions/"+bad, nil, nil); code != http.StatusNotFound {
		t.Errorf("unrestorable session %s: status %d, want 404", bad, code)
	}
}
