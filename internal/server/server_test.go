package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
)

// hospitalFixture generates the hospital (HAI) workload: ground truth,
// a dirtied copy, the Table 4 rule set, and its parseable text form.
func hospitalFixture(t *testing.T) (*dataset.Table, []*rules.Rule, string) {
	t.Helper()
	return hospitalFixtureSeed(t, 11)
}

// hospitalFixtureSeed is hospitalFixture with the error injection's seed
// chosen: the same ground truth and rules, a different dirty table per seed.
func hospitalFixtureSeed(t *testing.T, errSeed int64) (*dataset.Table, []*rules.Rule, string) {
	t.Helper()
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 40, Measures: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: errSeed})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = r.Canonical()
	}
	return inj.Dirty, rs, strings.Join(lines, "\n")
}

// newTestServer builds a Server, failing the test on a config/replay error.
func newTestServer(t *testing.T, cfg ManagerConfig) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// client is a minimal JSON client for the session API.
type client struct {
	t    *testing.T
	base string
}

func (c *client) do(method, path string, body, out any) int {
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
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// runSession drives one full session over HTTP: create, stream the table in
// batches, clean, poll, fetch the result. req is the create body: a
// CreateRequest, or anything that marshals to one.
func (c *client) runSession(req any, dirty *dataset.Table, batches int) (SessionInfo, ResultResponse) {
	c.t.Helper()
	var info SessionInfo
	if code := c.do("POST", "/v1/sessions", req, &info); code != http.StatusCreated {
		c.t.Fatalf("create session: status %d", code)
	}
	per := (dirty.Len() + batches - 1) / batches
	sent := 0
	for lo := 0; lo < dirty.Len(); lo += per {
		hi := min(lo+per, dirty.Len())
		rows := make([][]string, 0, hi-lo)
		for _, tp := range dirty.Tuples[lo:hi] {
			rows = append(rows, tp.Values)
		}
		var ack TuplesResponse
		if code := c.do("POST", "/v1/sessions/"+info.ID+"/tuples", TuplesRequest{Rows: rows}, &ack); code != http.StatusOK {
			c.t.Fatalf("stream tuples: status %d", code)
		}
		sent += len(rows)
		if ack.Total != sent {
			c.t.Fatalf("tuple ack total = %d, want %d", ack.Total, sent)
		}
	}
	if code := c.do("POST", "/v1/sessions/"+info.ID+"/clean", nil, nil); code != http.StatusAccepted {
		c.t.Fatalf("clean: status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st SessionInfo
		if code := c.do("GET", "/v1/sessions/"+info.ID, nil, &st); code != http.StatusOK {
			c.t.Fatalf("poll: status %d", code)
		}
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed {
			c.t.Fatalf("session failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			c.t.Fatal("session never finished cleaning")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var res ResultResponse
	if code := c.do("GET", "/v1/sessions/"+info.ID+"/result", nil, &res); code != http.StatusOK {
		c.t.Fatalf("result: status %d", code)
	}
	if code := c.do("DELETE", "/v1/sessions/"+info.ID, nil, nil); code != http.StatusNoContent {
		c.t.Fatalf("delete: status %d", code)
	}
	return info, res
}

// TestServeHospitalEndToEnd starts the server on a random port, streams the
// hospital example through a session in multiple batches, and requires
// repairs identical to the batch CLI path (core.Clean). A second session
// over the same rules and table learns its own weights and serves the same
// rows, ids and stats.
func TestServeHospitalEndToEnd(t *testing.T) {
	dirty, rs, rulesText := hospitalFixture(t)

	// The batch CLI path: mlnclean -workers 1 runs core.Clean and writes
	// res.Clean.
	want, err := core.Clean(dirty, rs, core.Options{Tau: 2})
	if err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, ManagerConfig{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}

	req := CreateRequest{
		Rules:   rulesText,
		Attrs:   dirty.Schema.Attrs(),
		Workers: 1,
		Tau:     2,
	}

	_, res := c.runSession(req, dirty, 3)
	assertResultEquals(t, res, want.Clean)

	// Second run, same rules and table: it learns again and serves the same
	// bytes.
	_, res2 := c.runSession(req, dirty, 2)
	assertSameClean(t, "second session", res2, res)

	// A create body from an older client, still carrying fields the API has
	// since dropped, is accepted and cleans exactly like the body without
	// them (unknown JSON fields are ignored).
	_, res3 := c.runSession(struct {
		CreateRequest
		DisablePlanner bool `json:"disable_planner"`
		Materialize    bool `json:"materialize"`
	}{req, true, true}, dirty, 2)
	assertSameClean(t, "create body with removed fields", res3, res2)

	// Likewise the executor's knobs, whatever they say: a session has no
	// workers, transport, partition seed or shipment size for them to set.
	_, res4 := c.runSession(map[string]any{
		"rules": rulesText, "attrs": dirty.Schema.Attrs(), "tau": 2,
		"workers": 7, "transport": "bogus", "seed": 9, "batch_size": 3,
	}, dirty, 2)
	res2.WallMS, res4.WallMS = 0, 0
	if !reflect.DeepEqual(res4, res2) {
		t.Errorf("create body with executor fields serves a different result:\n got %+v\nwant %+v", res4, res2)
	}
}

// assertSameClean requires two results to carry the same rows, ids and
// stats, and the run behind them to have learned its weights.
func assertSameClean(t *testing.T, what string, got, want ResultResponse) {
	t.Helper()
	if !reflect.DeepEqual(got.IDs, want.IDs) {
		t.Errorf("%s: ids differ", what)
	}
	cells := 0
	for i := 0; i < len(got.Rows) && i < len(want.Rows); i++ {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				cells++
			}
		}
	}
	if cells > 0 || len(got.Rows) != len(want.Rows) {
		t.Errorf("%s: %d cells differ (%d rows, want %d)", what, cells, len(got.Rows), len(want.Rows))
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats differ:\ngot  %+v\nwant %+v", what, got.Stats, want.Stats)
	}
	if got.Stats.LearnIterations == 0 {
		t.Errorf("%s: the run learned nothing (0 iterations)", what)
	}
}

// TestSessionHistoryIndependent: what a session serves is a function of its
// own request and tuples. Session B cleans the same bytes whether it is the
// first session a server ever saw or follows session A — a different dirty
// table under the same rules and options — and whether or not its create
// body sets the retired fresh_weights field.
func TestSessionHistoryIndependent(t *testing.T) {
	tableA, _, rulesText := hospitalFixtureSeed(t, 11)
	tableB, _, _ := hospitalFixtureSeed(t, 12)
	req := CreateRequest{Rules: rulesText, Attrs: tableA.Schema.Attrs(), Tau: 2}
	serve := func() *client {
		srv := newTestServer(t, ManagerConfig{})
		t.Cleanup(srv.Shutdown)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return &client{t: t, base: ts.URL}
	}

	_, want := serve().runSession(req, tableB, 3)

	used := serve()
	used.runSession(req, tableA, 3)
	_, got := used.runSession(req, tableB, 3)
	assertSameClean(t, "B after A", got, want)

	fresh := req
	fresh.FreshWeights = true
	_, got = used.runSession(fresh, tableB, 3)
	assertSameClean(t, "B with fresh_weights", got, want)
}

func assertResultEquals(t *testing.T, got ResultResponse, want *dataset.Table) {
	t.Helper()
	if len(got.Rows) != want.Len() {
		t.Fatalf("result has %d rows, want %d", len(got.Rows), want.Len())
	}
	for i, tp := range want.Tuples {
		if got.IDs[i] != tp.ID {
			t.Fatalf("row %d: id %d, want %d", i, got.IDs[i], tp.ID)
		}
		for j, v := range tp.Values {
			if got.Rows[i][j] != v {
				t.Fatalf("row %d col %d: %q, want %q", i, j, got.Rows[i][j], v)
			}
		}
	}
}

// TestServeBackpressureHTTP maps the session cap to 429 + Retry-After.
func TestServeBackpressureHTTP(t *testing.T) {
	srv := newTestServer(t, ManagerConfig{MaxSessions: 1})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}

	req := CreateRequest{Rules: testRules, Attrs: []string{"CT", "ST"}, Workers: 1}
	var info SessionInfo
	if code := c.do("POST", "/v1/sessions", req, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := c.do("POST", "/v1/sessions", req, nil); code != http.StatusTooManyRequests {
		t.Fatalf("create past cap: status %d, want 429", code)
	}
	if code := c.do("DELETE", "/v1/sessions/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	var refilled SessionInfo
	if code := c.do("POST", "/v1/sessions", req, &refilled); code != http.StatusCreated {
		t.Fatalf("create after delete: status %d", code)
	}
	if code := c.do("DELETE", "/v1/sessions/"+refilled.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	// Unknown session id → 404.
	if code := c.do("GET", "/v1/sessions/s-999999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", code)
	}

	// Malformed rows are the client's fault → 400, not a 409 state conflict.
	var info2 SessionInfo
	if code := c.do("POST", "/v1/sessions", req, &info2); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := c.do("POST", "/v1/sessions/"+info2.ID+"/tuples", TuplesRequest{Rows: [][]string{{"only-one-field"}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("ragged row: status %d, want 400", code)
	}
	// Result before cleaning is a state conflict → 409.
	if code := c.do("GET", "/v1/sessions/"+info2.ID+"/result", nil, nil); code != http.StatusConflict {
		t.Fatalf("early result: status %d, want 409", code)
	}
}
