package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
	"mlnclean/internal/wal"
)

// The serving-layer half of the incremental parity contract: every result
// version a session serves — version 1, the clean, included — must equal a
// from-scratch solo clean of that version's input (table, stats, and
// independently recomputed repair attribution), and must re-serve
// byte-identically after a restart on the same data directory.

// carFixture builds a seeded dirty CAR workload plus its rules text.
func carFixture(t *testing.T, rows int, seed int64) (*dataset.Table, []*rules.Rule, string) {
	t.Helper()
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatalf("datagen.CAR: %v", err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.08, ReplacementRatio: 0.5, Seed: seed + 1})
	if err != nil {
		t.Fatalf("errgen.Inject: %v", err)
	}
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = r.Canonical()
	}
	return inj.Dirty, rs, strings.Join(lines, "\n")
}

// rawGet fetches a path without decoding, for byte-identity assertions.
func rawGet(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// doEnvelope sends a request and decodes the error envelope.
func doEnvelope(c *client, method, path string, body any) (int, errorBody) {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorBody
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			c.t.Fatalf("%s %s: error response is not the envelope: %v", method, path, err)
		}
	}
	return resp.StatusCode, env
}

// mirrorTable materializes an id → values mirror as a table in ascending-ID
// order, the canonical shape the delta engine serves.
func mirrorTable(schema *dataset.Schema, rows map[int][]string) *dataset.Table {
	ids := make([]int, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	tb := dataset.NewTable(schema)
	for _, id := range ids {
		tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: id, Values: append([]string(nil), rows[id]...)})
	}
	return tb
}

// assertVersionParity fetches one result version and its repairs and requires
// both to match a from-scratch solo re-clean of the mirror.
func assertVersionParity(t *testing.T, c *client, id string, version int, schema *dataset.Schema, mirror map[int][]string, rs []*rules.Rule) {
	t.Helper()
	ref := mirrorTable(schema, mirror)
	want, err := core.Clean(ref, rs, core.Options{})
	if err != nil {
		t.Fatalf("version %d: reference clean: %v", version, err)
	}
	var res ResultResponse
	if code := c.do("GET", fmt.Sprintf("/v1/sessions/%s/result?version=%d", id, version), nil, &res); code != http.StatusOK {
		t.Fatalf("result version %d: status %d", version, code)
	}
	if res.Version != version || res.RolledBack {
		t.Fatalf("version %d metadata = %+v", version, res)
	}
	// Version 1 is the clean and carries its wall time; a later one, an
	// Apply, carries none.
	if version > 1 && res.WallMS != 0 {
		t.Fatalf("version %d: wall_ms %d, want 0", version, res.WallMS)
	}
	if got, wantN := len(res.Rows), want.Clean.Len(); got != wantN {
		t.Fatalf("version %d: %d rows, want %d", version, got, wantN)
	}
	for i, tp := range want.Clean.Tuples {
		if res.IDs[i] != tp.ID || !reflect.DeepEqual(res.Rows[i], tp.Values) {
			t.Fatalf("version %d row %d: got id=%d %v, want id=%d %v",
				version, i, res.IDs[i], res.Rows[i], tp.ID, tp.Values)
		}
	}
	if !reflect.DeepEqual(res.Stats, want.Stats) {
		t.Fatalf("version %d stats:\ngot  %+v\nwant %+v", version, res.Stats, want.Stats)
	}
	var reps RepairsResponse
	if code := c.do("GET", fmt.Sprintf("/v1/sessions/%s/repairs?version=%d", id, version), nil, &reps); code != http.StatusOK {
		t.Fatalf("repairs version %d: status %d", version, code)
	}
	wantReps := computeRepairsTable(schema, ref, want.Repaired, rs, stageIBlocks(t, ref, rs, core.Options{}))
	if reps.Version != version || reps.Total != len(wantReps) {
		t.Fatalf("repairs version %d: version=%d total=%d, want version=%d total=%d",
			version, reps.Version, reps.Total, version, len(wantReps))
	}
	if len(reps.Repairs) != len(wantReps) || (len(wantReps) > 0 && !reflect.DeepEqual(reps.Repairs, wantReps)) {
		t.Fatalf("repairs version %d:\ngot  %+v\nwant %+v", version, reps.Repairs, wantReps)
	}
}

// TestMutationSequenceParity cleans a session and drives randomized tuple
// mutations (updates, inserts, deletes) through the HTTP API, checking every
// version, the clean's included, against an independent full clean of its
// table — then restarts the server on the same (in-memory) data directory and
// requires every version to re-serve byte-identically before accepting
// further mutations. CHAOS_SEEDS widens the grid in CI.
func TestMutationSequenceParity(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		// The create body still names a worker count and a transport; both are
		// ignored (and the subtest keeps its name from when they were not).
		t.Run(fmt.Sprintf("seed=%d/transport=chan", seed), func(t *testing.T) {
			dirty, rs, rulesText := carFixture(t, 120, seed)
			schema := dirty.Schema
			fs := wal.NewMemFS(wal.FaultPlan{})
			cfg := ManagerConfig{WALFS: fs, SnapshotEvery: 4}

			srv1 := newTestServer(t, cfg)
			ts1 := httptest.NewServer(srv1)
			c1 := &client{t: t, base: ts1.URL}
			req := CreateRequest{Rules: rulesText, Attrs: schema.Attrs(), Workers: 2, Transport: "chan"}
			info := createSession(c1, req)
			submitBatches(c1, info.ID, splitRows(dirty, 3))
			startClean(c1, info.ID)
			pollDone(c1, info.ID)

			mirror := make(map[int][]string, dirty.Len())
			for i, tp := range dirty.Tuples {
				mirror[i] = append([]string(nil), tp.Values...)
			}
			assertVersionParity(t, c1, info.ID, 1, schema, mirror, rs)
			next := dirty.Len()
			rng := rand.New(rand.NewSource(seed * 131))
			randomValues := func() []string {
				vals := make([]string, schema.Len())
				for j := range vals {
					if rng.Intn(8) == 0 {
						vals[j] = fmt.Sprintf("nv-%d-%d", j, rng.Intn(50))
					} else {
						vals[j] = mirror[anyKey(mirror, rng)][j]
					}
				}
				return vals
			}

			const steps = 8
			for step := 1; step <= steps; step++ {
				var (
					op   string
					row  int
					vals []string
				)
				switch {
				case len(mirror) > 5 && rng.Intn(4) == 0:
					op, row = mutDelete, anyKey(mirror, rng)
				case rng.Intn(2) == 0:
					op, row, vals = mutPut, anyKey(mirror, rng), randomValues()
				default:
					op, row, vals = mutPut, next, randomValues()
				}
				var ack MutateResponse
				path := fmt.Sprintf("/v1/sessions/%s/tuples/%d", info.ID, row)
				var code int
				if op == mutPut {
					code = c1.do("PUT", path, MutateRequest{Values: vals}, &ack)
				} else {
					code = c1.do("DELETE", path, nil, &ack)
				}
				if code != http.StatusOK {
					t.Fatalf("step %d: %s row %d: status %d", step, op, row, code)
				}
				if op == mutPut {
					mirror[row] = append([]string(nil), vals...)
					if row == next {
						next++
					}
				} else {
					delete(mirror, row)
				}
				if ack.Version != 1+step || ack.Tuples != len(mirror) {
					t.Fatalf("step %d ack = %+v, want version %d tuples %d", step, ack, 1+step, len(mirror))
				}
				assertVersionParity(t, c1, info.ID, ack.Version, schema, mirror, rs)
			}

			var st SessionInfo
			if code := c1.do("GET", "/v1/sessions/"+info.ID, nil, &st); code != http.StatusOK || st.Versions != 1+steps {
				t.Fatalf("status versions = %d (code %d), want %d", st.Versions, code, 1+steps)
			}

			// Capture every version's bytes, restart on the same FS, and
			// require identical re-serving — the mutation log replayed
			// through the deterministic engine, no versions persisted.
			type raw struct{ result, repairs []byte }
			raws := make([]raw, 0, 1+steps)
			for v := 1; v <= 1+steps; v++ {
				_, rb := rawGet(t, c1.base, fmt.Sprintf("/v1/sessions/%s/result?version=%d", info.ID, v))
				_, pb := rawGet(t, c1.base, fmt.Sprintf("/v1/sessions/%s/repairs?version=%d", info.ID, v))
				raws = append(raws, raw{result: rb, repairs: pb})
			}
			ts1.Close()
			srv1.Shutdown()

			srv2 := newTestServer(t, cfg)
			defer srv2.Shutdown()
			ts2 := httptest.NewServer(srv2)
			defer ts2.Close()
			c2 := &client{t: t, base: ts2.URL}
			for v := 1; v <= 1+steps; v++ {
				code, rb := rawGet(t, c2.base, fmt.Sprintf("/v1/sessions/%s/result?version=%d", info.ID, v))
				if code != http.StatusOK || !bytes.Equal(rb, raws[v-1].result) {
					t.Fatalf("restart: result version %d diverges (status %d):\ngot  %s\nwant %s",
						v, code, rb, raws[v-1].result)
				}
				code, pb := rawGet(t, c2.base, fmt.Sprintf("/v1/sessions/%s/repairs?version=%d", info.ID, v))
				if code != http.StatusOK || !bytes.Equal(pb, raws[v-1].repairs) {
					t.Fatalf("restart: repairs version %d diverges (status %d)", v, code)
				}
			}
			// The replay rebuilt the dense-id high-water mark: one past it
			// is still out of range, the mark itself still insertable.
			if code := c2.do("PUT", fmt.Sprintf("/v1/sessions/%s/tuples/%d", info.ID, next+1), MutateRequest{Values: randomValues()}, nil); code != http.StatusUnprocessableEntity {
				t.Fatalf("post-restart PUT past the high-water id %d: status %d, want 422", next, code)
			}
			// And the restarted session keeps accepting mutations.
			for i, row := range []int{next, anyKey(mirror, rng)} {
				vals := randomValues()
				var ack MutateResponse
				if code := c2.do("PUT", fmt.Sprintf("/v1/sessions/%s/tuples/%d", info.ID, row), MutateRequest{Values: vals}, &ack); code != http.StatusOK {
					t.Fatalf("post-restart mutation of row %d: status %d", row, code)
				}
				mirror[row] = append([]string(nil), vals...)
				if ack.Version != 2+steps+i || ack.Tuples != len(mirror) {
					t.Fatalf("post-restart ack = %+v, want version %d tuples %d", ack, 2+steps+i, len(mirror))
				}
				assertVersionParity(t, c2, info.ID, ack.Version, schema, mirror, rs)
			}
		})
	}
}

// TestNoOpPutKeepsTheTable: a PUT of a row's own values changes nothing, so
// the version it mints is version 1 again — rows, ids, stats and audit trail —
// with no rule block rebuilt and every tuple accounted for as re-fused or
// reused. It holds only because versions 1 and 2 come off the same engine.
func TestNoOpPutKeepsTheTable(t *testing.T) {
	for _, fx := range []struct {
		name    string
		tau     int
		fixture func() (*dataset.Table, []*rules.Rule, string)
	}{
		{"hospital", 2, func() (*dataset.Table, []*rules.Rule, string) { return hospitalFixture(t) }},
		{"car-2k", 1, func() (*dataset.Table, []*rules.Rule, string) { return carFixture(t, 2000, 42) }},
	} {
		t.Run(fx.name, func(t *testing.T) {
			dirty, rs, rulesText := fx.fixture()
			srv := newTestServer(t, ManagerConfig{})
			defer srv.Shutdown()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			c := &client{t: t, base: ts.URL}
			id := createSession(c, CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Tau: fx.tau}).ID
			submitBatches(c, id, splitRows(dirty, 3))
			startClean(c, id)
			pollDone(c, id)
			v1, trail1 := getResult(c, id), getRepairs(c, id)

			var ack MutateResponse
			if code := c.do("PUT", "/v1/sessions/"+id+"/tuples/0", MutateRequest{Values: dirty.Tuples[0].Values}, &ack); code != http.StatusOK {
				t.Fatalf("no-op PUT: status %d", code)
			}
			if d := ack.Delta; ack.Version != 2 || ack.Tuples != dirty.Len() || d.DirtyBlocks != 0 ||
				d.ReusedBlocks != len(rs) || d.RefusedTuples+d.ReusedTuples != dirty.Len() {
				t.Fatalf("no-op PUT ack = %+v (delta %+v), want version 2 over %d tuples with all %d blocks reused",
					ack, *ack.Delta, dirty.Len(), len(rs))
			}
			v2, trail2 := getResult(c, id), getRepairs(c, id)
			if v2.Version != 2 || trail2.Version != 2 {
				t.Fatalf("latest result/trail are versions %d/%d, want 2", v2.Version, trail2.Version)
			}
			assertSameClean(t, "version 2 after a no-op PUT", v2, v1)
			if !reflect.DeepEqual(trail2.Repairs, trail1.Repairs) {
				t.Errorf("a no-op PUT changed the audit trail: %d repairs, version 1 had %d", len(trail2.Repairs), len(trail1.Repairs))
			}
		})
	}
}

// anyKey draws a random live row id (deterministically, via sorted keys).
func anyKey(m map[int][]string, rng *rand.Rand) int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids[rng.Intn(len(ids))]
}

// TestMutateStatusCodes pins the error envelope and status mapping of the
// mutation-first surface: 422 for semantically bad input, 404 for absent
// rows/versions, 409 for state conflicts, 400 for undecodable bodies — and
// the idempotent session DELETE (204 then 404, never 500).
func TestMutateStatusCodes(t *testing.T) {
	dirty, _, rulesText := carFixture(t, 60, 3)
	srv := newTestServer(t, ManagerConfig{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}
	req := CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Workers: 1}
	info := createSession(c, req)
	submitBatches(c, info.ID, splitRows(dirty, 2))

	check := func(wantStatus int, wantCode string, gotStatus int, env errorBody, label string) {
		t.Helper()
		if gotStatus != wantStatus || env.Error.Code != wantCode {
			t.Fatalf("%s: got status %d code %q, want %d %q (message %q)",
				label, gotStatus, env.Error.Code, wantStatus, wantCode, env.Error.Message)
		}
	}

	// Mutating an open session is a state conflict.
	goodRow := append([]string(nil), dirty.Tuples[0].Values...)
	st, env := doEnvelope(c, "PUT", "/v1/sessions/"+info.ID+"/tuples/0", MutateRequest{Values: goodRow})
	check(http.StatusConflict, codeConflict, st, env, "mutate while open")

	startClean(c, info.ID)
	pollDone(c, info.ID)

	st, env = doEnvelope(c, "PUT", "/v1/sessions/"+info.ID+"/tuples/0", MutateRequest{Values: []string{"just-one"}})
	check(http.StatusUnprocessableEntity, codeInvalid, st, env, "arity mismatch")
	st, env = doEnvelope(c, "PUT", fmt.Sprintf("/v1/sessions/%s/tuples/%d", info.ID, dirty.Len()+7), MutateRequest{Values: goodRow})
	check(http.StatusUnprocessableEntity, codeInvalid, st, env, "row beyond next")
	st, env = doEnvelope(c, "PUT", "/v1/sessions/"+info.ID+"/tuples/abc", MutateRequest{Values: goodRow})
	check(http.StatusUnprocessableEntity, codeInvalid, st, env, "non-integer row")
	st, env = doEnvelope(c, "DELETE", "/v1/sessions/"+info.ID+"/tuples/9999", nil)
	check(http.StatusNotFound, codeNotFound, st, env, "delete absent row")

	// Undecodable body → 400 bad_request.
	resp, err := http.Post(ts.URL+"/v1/sessions/"+info.ID+"/tuples", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	var badEnv errorBody
	json.NewDecoder(resp.Body).Decode(&badEnv)
	resp.Body.Close()
	check(http.StatusBadRequest, codeBadRequest, resp.StatusCode, badEnv, "garbage batch body")

	// Version addressing: 0 and garbage are invalid, too-new is not found.
	st, env = doEnvelope(c, "GET", "/v1/sessions/"+info.ID+"/result?version=0", nil)
	check(http.StatusUnprocessableEntity, codeInvalid, st, env, "version 0")
	st, env = doEnvelope(c, "GET", "/v1/sessions/"+info.ID+"/result?version=two", nil)
	check(http.StatusUnprocessableEntity, codeInvalid, st, env, "version garbage")
	st, env = doEnvelope(c, "GET", "/v1/sessions/"+info.ID+"/result?version=99", nil)
	check(http.StatusNotFound, codeNotFound, st, env, "version too new")
	st, env = doEnvelope(c, "GET", "/v1/sessions/"+info.ID+"/repairs?limit=0", nil)
	check(http.StatusUnprocessableEntity, codeInvalid, st, env, "limit zero")
	st, env = doEnvelope(c, "GET", "/v1/sessions/"+info.ID+"/repairs?cursor=-4", nil)
	check(http.StatusUnprocessableEntity, codeInvalid, st, env, "negative cursor")

	// A real mutation succeeds, after which rollback is off the table.
	var ack MutateResponse
	if code := c.do("PUT", "/v1/sessions/"+info.ID+"/tuples/0", MutateRequest{Values: goodRow}, &ack); code != http.StatusOK || ack.Version != 2 {
		t.Fatalf("mutation: status %d version %d", code, ack.Version)
	}
	st, env = doEnvelope(c, "POST", "/v1/sessions/"+info.ID+"/rollback", nil)
	check(http.StatusConflict, codeConflict, st, env, "rollback after mutation")

	// Dense-id policy: a PUT may replace any live row or insert at the
	// high-water id — one past the largest row id ever stored, which a delete
	// does not lower — and nowhere else.
	n := dirty.Len()
	mutate := func(method string, row, wantTuples int, label string) {
		t.Helper()
		var body any
		if method == "PUT" {
			body = MutateRequest{Values: goodRow}
		}
		var ack MutateResponse
		if code := c.do(method, fmt.Sprintf("/v1/sessions/%s/tuples/%d", info.ID, row), body, &ack); code != http.StatusOK || ack.Tuples != wantTuples {
			t.Fatalf("%s: status %d tuples %d, want 200 with %d tuples", label, code, ack.Tuples, wantTuples)
		}
	}
	mutate("DELETE", n-1, n-1, "delete the last row")
	mutate("PUT", n, n, "insert at the high-water id after deleting below it")
	st, env = doEnvelope(c, "PUT", fmt.Sprintf("/v1/sessions/%s/tuples/%d", info.ID, n+2), MutateRequest{Values: goodRow})
	check(http.StatusUnprocessableEntity, codeInvalid, st, env, "row beyond the high-water id")
	mutate("PUT", n-1, n+1, "revive a deleted row")
	for row := n; row > 0; row-- { // rows 0..n are live; deleting row leaves rows 0..row-1
		mutate("DELETE", row, row, "delete down to one tuple")
	}
	st, env = doEnvelope(c, "DELETE", "/v1/sessions/"+info.ID+"/tuples/0", nil)
	check(http.StatusConflict, codeConflict, st, env, "delete the only tuple")

	// And the mirror image: a rolled-back session refuses mutations.
	rb := createSession(c, req)
	submitBatches(c, rb.ID, splitRows(dirty, 2))
	startClean(c, rb.ID)
	pollDone(c, rb.ID)
	if code := c.do("POST", "/v1/sessions/"+rb.ID+"/rollback", nil, nil); code != http.StatusOK {
		t.Fatalf("rollback: status %d", code)
	}
	st, env = doEnvelope(c, "PUT", "/v1/sessions/"+rb.ID+"/tuples/0", MutateRequest{Values: goodRow})
	check(http.StatusConflict, codeConflict, st, env, "mutation after rollback")

	// Idempotent close: 204, then 404 through the envelope — never 500.
	if code := c.do("DELETE", "/v1/sessions/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("first delete: status %d", code)
	}
	st, env = doEnvelope(c, "DELETE", "/v1/sessions/"+info.ID, nil)
	check(http.StatusNotFound, codeNotFound, st, env, "second delete")
	st, env = doEnvelope(c, "GET", "/v1/sessions/"+info.ID, nil)
	check(http.StatusNotFound, codeNotFound, st, env, "status after delete")
}

// TestRepairsPagination walks the audit trail page by page and requires the
// concatenation to equal the unpaginated response, with a correct cursor
// chain and graceful behavior past the end.
func TestRepairsPagination(t *testing.T) {
	dirty, _, rulesText := carFixture(t, 150, 5)
	srv := newTestServer(t, ManagerConfig{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}
	info := createSession(c, CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Workers: 1})
	submitBatches(c, info.ID, splitRows(dirty, 2))
	startClean(c, info.ID)
	pollDone(c, info.ID)

	full := getRepairs(c, info.ID)
	if full.Total != len(full.Repairs) || full.Total < 4 {
		t.Fatalf("unpaginated trail: total=%d len=%d, want an untruncated trail of ≥4", full.Total, len(full.Repairs))
	}
	if full.NextCursor != 0 {
		t.Fatalf("unpaginated response has next_cursor %d", full.NextCursor)
	}
	var walked []Repair
	cursor, pages := 0, 0
	for {
		var page RepairsResponse
		path := fmt.Sprintf("/v1/sessions/%s/repairs?limit=3&cursor=%d", info.ID, cursor)
		if code := c.do("GET", path, nil, &page); code != http.StatusOK {
			t.Fatalf("page at cursor %d: status %d", cursor, code)
		}
		if page.Total != full.Total {
			t.Fatalf("page total %d, want %d", page.Total, full.Total)
		}
		if len(page.Repairs) > 3 {
			t.Fatalf("page at cursor %d has %d repairs, limit 3", cursor, len(page.Repairs))
		}
		walked = append(walked, page.Repairs...)
		pages++
		if page.NextCursor == 0 {
			break
		}
		if page.NextCursor != cursor+3 {
			t.Fatalf("next_cursor %d after cursor %d with limit 3", page.NextCursor, cursor)
		}
		cursor = page.NextCursor
	}
	if pages < 2 || !reflect.DeepEqual(walked, full.Repairs) {
		t.Fatalf("walked %d pages, %d repairs; want the unpaginated trail of %d", pages, len(walked), full.Total)
	}
	var beyond RepairsResponse
	if code := c.do("GET", fmt.Sprintf("/v1/sessions/%s/repairs?limit=3&cursor=%d", info.ID, full.Total+50), nil, &beyond); code != http.StatusOK {
		t.Fatalf("cursor past end: status %d", code)
	}
	if len(beyond.Repairs) != 0 || beyond.Total != full.Total || beyond.NextCursor != 0 {
		t.Fatalf("cursor past end: %+v", beyond)
	}

	// A limit whose sum with the cursor overflows is a page to the end.
	tail := func(version int) {
		t.Helper()
		var page RepairsResponse
		path := fmt.Sprintf("/v1/sessions/%s/repairs?version=%d&limit=9223372036854775807&cursor=1", info.ID, version)
		if code := c.do("GET", path, nil, &page); code != http.StatusOK {
			t.Fatalf("version %d, limit MaxInt64 at cursor 1: status %d", version, code)
		}
		if page.Total != full.Total || page.NextCursor != 0 || !reflect.DeepEqual(page.Repairs, full.Repairs[1:]) {
			t.Fatalf("version %d, limit MaxInt64 at cursor 1: total %d, next %d, %d repairs; want the trail's %d after the first",
				version, page.Total, page.NextCursor, len(page.Repairs), full.Total-1)
		}
	}
	tail(1)

	// Version 1's pages are the same once a mutation has minted version 2.
	vals := append([]string(nil), dirty.Tuples[1].Values...)
	if code := c.do("PUT", fmt.Sprintf("/v1/sessions/%s/tuples/0", info.ID), MutateRequest{Values: vals}, nil); code != http.StatusOK {
		t.Fatalf("PUT row 0: status %d", code)
	}
	var page RepairsResponse
	if code := c.do("GET", fmt.Sprintf("/v1/sessions/%s/repairs?version=1&limit=3&cursor=2", info.ID), nil, &page); code != http.StatusOK {
		t.Fatalf("version 1 page after a mutation: status %d", code)
	}
	wantNext := 5
	if full.Total <= wantNext {
		wantNext = 0
	}
	if page.Version != 1 || page.Total != full.Total || page.NextCursor != wantNext ||
		!reflect.DeepEqual(page.Repairs, full.Repairs[2:min(5, full.Total)]) {
		t.Fatalf("version 1 page after a mutation: %+v, want repairs 2-4 of %d", page, full.Total)
	}
	tail(1)
}

// TestServeOldVersionsDuringMutations: result bodies and repairs pages of
// versions already minted are read while mutations mint new ones. A version
// shares row chunks with the versions after it and resolves its trail
// through the engine's dictionary, which each mutation appends to; every
// body must equal the one served right after that version was minted. Run
// it under -race: it guards the unlocked dictionary.
func TestServeOldVersionsDuringMutations(t *testing.T) {
	dirty, _, rulesText := carFixture(t, 300, 9)
	srv := newTestServer(t, ManagerConfig{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}
	info := createSession(c, CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs()})
	submitBatches(c, info.ID, splitRows(dirty, 2))
	startClean(c, info.ID)
	pollDone(c, info.ID)

	get := func(path string) ([]byte, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, b)
		}
		return b, err
	}
	paths := func(v int) []string {
		base := fmt.Sprintf("/v1/sessions/%s/", info.ID)
		return []string{
			fmt.Sprintf("%sresult?version=%d", base, v),
			fmt.Sprintf("%srepairs?version=%d", base, v),
			fmt.Sprintf("%srepairs?version=%d&limit=7&cursor=5", base, v),
		}
	}
	// minted[v-1] holds version v's bodies, read right after it was minted.
	var mu sync.Mutex
	var minted [][][]byte
	record := func(v int) error {
		var bodies [][]byte
		for _, p := range paths(v) {
			b, err := get(p)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
		mu.Lock()
		minted = append(minted, bodies)
		mu.Unlock()
		return nil
	}
	if err := record(1); err != nil {
		t.Fatal(err)
	}

	const steps = 24
	rng := rand.New(rand.NewSource(9))
	var muts []string // method and row, one per step
	live, next := dirty.Len(), dirty.Len()
	for step := 0; step < steps; step++ {
		switch step % 3 {
		case 0:
			muts = append(muts, fmt.Sprintf("PUT %d", next))
			next++
			live++
		case 1:
			muts = append(muts, fmt.Sprintf("PUT %d", rng.Intn(live)))
		default:
			muts = append(muts, fmt.Sprintf("DELETE %d", step)) // a distinct original row each time
		}
	}
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for step, m := range muts {
			var method string
			var row int
			fmt.Sscan(m, &method, &row)
			var body io.Reader
			if method == "PUT" {
				// A value no row had: the engine's dictionary grows while
				// the reads resolve trails through it.
				vals := append([]string(nil), dirty.Tuples[rng.Intn(dirty.Len())].Values...)
				vals[rng.Intn(len(vals))] = fmt.Sprintf("novel-%d", step)
				b, _ := json.Marshal(MutateRequest{Values: vals})
				body = bytes.NewReader(b)
			}
			req, _ := http.NewRequest(method, fmt.Sprintf("%s/v1/sessions/%s/tuples/%d", ts.URL, info.ID, row), body)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("step %d: %s: status %d", step, m, resp.StatusCode)
				return
			}
			if err := record(step + 2); err != nil {
				done <- err
				return
			}
		}
	}()

	reads := 0
	for finished := false; !finished; {
		select {
		case err, open := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = !open
		default:
		}
		mu.Lock()
		n := len(minted)
		mu.Unlock()
		v := 1 + reads%n
		for i, p := range paths(v) {
			b, err := get(p)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			want := minted[v-1][i]
			mu.Unlock()
			if !bytes.Equal(b, want) {
				t.Fatalf("%s while mutating:\n got %s\nwant %s", p, b, want)
			}
		}
		reads++
	}
	if len(minted) != 1+steps || reads < steps {
		t.Fatalf("%d versions minted, %d reads: the reads did not overlap the mutations", len(minted), reads)
	}
}
