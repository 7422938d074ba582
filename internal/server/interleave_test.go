package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"mlnclean/internal/wal"
)

// TestSessionInterleavings drives random interleavings of tuple PUTs
// (updates, inserts, an insert past the next dense ID), DELETEs (of live and
// absent rows), rollback, close and restart through one session over HTTP,
// and checks every answer against a model of the session. No request may
// fail at the transport (a handler panic would), every version a mutation
// mints must equal a from-scratch clean of its table, and a restart must
// re-serve every version byte for byte and keep minting versions that equal
// a fresh clean — the restarted engine re-derives its state with every
// cross-rebuild memo cold. A rolled-back session refuses mutations, a
// session with mutations refuses rollback, and a closed session answers 404
// to everything, across restarts too.
func TestSessionInterleavings(t *testing.T) {
	seen := make(map[string]int)
	for _, seed := range chaosSeeds(t) {
		for run := range int64(3) {
			t.Run(fmt.Sprintf("seed=%d/run=%d", seed, run), func(t *testing.T) {
				for k, n := range interleave(t, seed*97+run) {
					seen[k] += n
				}
			})
		}
	}
	for _, k := range []string{"update", "insert", "insert past the next ID", "delete", "delete of an absent row", "rollback", "rolled back", "restart", "close"} {
		if seen[k] == 0 {
			t.Errorf("no run made a %s", k)
		}
	}
}

// interleave drives one random interleaving on a session of its own and
// returns how many steps of each kind it made.
func interleave(t *testing.T, seed int64) map[string]int {
	dirty, rs, rulesText := carFixture(t, 60, seed)
	schema := dirty.Schema
	rng := rand.New(rand.NewSource(seed))
	cfg := ManagerConfig{WALFS: wal.NewMemFS(wal.FaultPlan{}), SnapshotEvery: 3}

	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Shutdown()
	}()
	c := &client{t: t, base: ts.URL}
	info := createSession(c, CreateRequest{Rules: rulesText, Attrs: schema.Attrs()})
	id := info.ID
	submitBatches(c, id, splitRows(dirty, 2))
	startClean(c, id)
	pollDone(c, id)

	mirror := make(map[int][]string, dirty.Len())
	for i, tp := range dirty.Tuples {
		mirror[i] = slices.Clone(tp.Values)
	}
	assertVersionParity(t, c, id, 1, schema, mirror, rs)
	next, versions := dirty.Len(), 1
	rolledBack, closed := false, false
	values := func() []string {
		vals := slices.Clone(mirror[anyKey(mirror, rng)])
		j := rng.Intn(len(vals))
		if rng.Intn(4) == 0 {
			vals[j] = fmt.Sprintf("nv-%d-%d", j, rng.Intn(20))
		} else {
			vals[j] = mirror[anyKey(mirror, rng)][j]
		}
		return vals
	}
	tuple := func(row int) string { return fmt.Sprintf("/v1/sessions/%s/tuples/%d", id, row) }
	// mutate sends one mutation and checks its answer against the model; a
	// minted version must equal a fresh clean of the mirror.
	mutate := func(step int, method string, row int, vals []string, want int) {
		t.Helper()
		var body any
		if method == "PUT" {
			body = MutateRequest{Values: vals}
		}
		var ack MutateResponse
		code := c.do(method, tuple(row), body, &ack)
		switch {
		case closed:
			want = http.StatusNotFound
		case rolledBack:
			want = http.StatusConflict // before the row is looked at
		}
		if code != want {
			t.Fatalf("step %d: %s row %d: status %d, want %d", step, method, row, code, want)
		}
		if code != http.StatusOK {
			return
		}
		if method == "PUT" {
			mirror[row] = slices.Clone(vals)
			next = max(next, row+1)
		} else {
			delete(mirror, row)
		}
		versions++
		if ack.Version != versions || ack.Tuples != len(mirror) {
			t.Fatalf("step %d: ack %+v, want version %d over %d tuples", step, ack, versions, len(mirror))
		}
		assertVersionParity(t, c, id, versions, schema, mirror, rs)
	}
	served := func() [][]byte {
		var out [][]byte
		for v := 1; v <= versions; v++ {
			for _, kind := range []string{"result", "repairs"} {
				code, b := rawGet(t, c.base, fmt.Sprintf("/v1/sessions/%s/%s?version=%d", id, kind, v))
				if code != http.StatusOK {
					t.Fatalf("%s version %d: status %d", kind, v, code)
				}
				out = append(out, b)
			}
		}
		return out
	}

	kinds := make(map[string]int)
	const steps = 18
	for step := 0; step < steps; step++ {
		// A rollback and a close each end what the session can do, so they
		// are rare, and a close comes late.
		k := rng.Intn(20)
		if k == 19 && step < steps-4 {
			k = rng.Intn(6)
		}
		switch {
		case k < 6:
			kinds["update"]++
			mutate(step, "PUT", anyKey(mirror, rng), values(), http.StatusOK)
		case k < 9:
			kinds["insert"]++
			mutate(step, "PUT", next, values(), http.StatusOK)
		case k < 10:
			kinds["insert past the next ID"]++
			mutate(step, "PUT", next+1, values(), http.StatusUnprocessableEntity)
		case k < 13:
			kinds["delete"]++
			mutate(step, "DELETE", anyKey(mirror, rng), nil, http.StatusOK)
		case k < 14:
			kinds["delete of an absent row"]++
			mutate(step, "DELETE", next+rng.Intn(3), nil, http.StatusNotFound)
		case k < 15:
			kinds["rollback"]++
			var rb RollbackResponse
			code := c.do("POST", "/v1/sessions/"+id+"/rollback", nil, &rb)
			want := http.StatusOK
			switch {
			case closed:
				want = http.StatusNotFound
			case versions > 1:
				want = http.StatusConflict
			}
			if code != want {
				t.Fatalf("step %d: rollback after %d versions: status %d, want %d", step, versions, code, want)
			}
			if code == http.StatusOK {
				kinds["rolled back"]++
				rolledBack = true
				res := getResult(c, id)
				if !res.RolledBack || len(res.Rows) != dirty.Len() {
					t.Fatalf("step %d: rolled-back result flagged %v with %d rows, want the %d input rows", step, res.RolledBack, len(res.Rows), dirty.Len())
				}
				for i, tp := range dirty.Tuples {
					if res.IDs[i] != tp.ID || !slices.Equal(res.Rows[i], tp.Values) {
						t.Fatalf("step %d: rolled-back row %d is %d %v, want the input's %d %v", step, i, res.IDs[i], res.Rows[i], tp.ID, tp.Values)
					}
				}
			}
		case k < 19:
			kinds["restart"]++
			var before [][]byte
			if !closed {
				before = served()
			}
			ts.Close()
			srv.Shutdown()
			srv = newTestServer(t, cfg)
			ts = httptest.NewServer(srv)
			c = &client{t: t, base: ts.URL}
			if closed {
				if code := c.do("GET", "/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
					t.Fatalf("step %d: a closed session answers %d after a restart, want 404", step, code)
				}
				continue
			}
			if after := served(); !slices.EqualFunc(before, after, bytes.Equal) {
				t.Fatalf("step %d: a restart re-serves %d versions differently", step, versions)
			}
			if res := getResult(c, id); res.RolledBack != rolledBack {
				t.Fatalf("step %d: after a restart the result is flagged rolled back %v, want %v", step, res.RolledBack, rolledBack)
			}
		default:
			kinds["close"]++
			want := http.StatusNoContent
			if closed {
				want = http.StatusNotFound
			}
			if code := c.do("DELETE", "/v1/sessions/"+id, nil, nil); code != want {
				t.Fatalf("step %d: close: status %d, want %d", step, code, want)
			}
			closed = true
			if code := c.do("GET", "/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
				t.Fatalf("step %d: a closed session answers %d, want 404", step, code)
			}
		}
	}
	t.Logf("%v; %d versions", kinds, versions)
	return kinds
}
