package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/obs"
	"mlnclean/internal/rules"
	"mlnclean/internal/wal"
)

// A restart is one Load of the folded log: its cost does not grow with the
// number of logged mutations, and only the latest version is resident after
// it.

// deltaCounts reads the engine's Load and Apply counts.
func deltaCounts() (loads, applies int64) {
	return obs.Default().Counter("mlnclean_core_delta_loads_total", "").Value(),
		obs.Default().Histogram("mlnclean_core_delta_apply_seconds", "", obs.DefBuckets).Count()
}

// TestRestartLoadsOnce restores a session with 54 logged mutations, the last
// of them a delete of the highest row. The restore loads one engine and
// applies nothing; every old version read afterwards, by several readers at
// once, re-serves what it served before the restart and is not kept, so only
// the latest version stays resident; and the dense-ID high-water mark counts
// the deleted row, so a PUT one past it is still 422.
func TestRestartLoadsOnce(t *testing.T) {
	dirty, _, rulesText := carFixture(t, 120, 5)
	schema := dirty.Schema
	cfg := ManagerConfig{WALFS: wal.NewMemFS(wal.FaultPlan{}), SnapshotEvery: 16}
	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	c1 := &client{t: t, base: ts1.URL}
	id := createSession(c1, CreateRequest{Rules: rulesText, Attrs: schema.Attrs()}).ID
	submitBatches(c1, id, splitRows(dirty, 2))
	startClean(c1, id)
	pollDone(c1, id)

	rng := rand.New(rand.NewSource(5))
	live := make([]int, dirty.Len())
	for i := range live {
		live[i] = i
	}
	next := dirty.Len()
	mutate := func(c *client, method string, row int, want int) {
		t.Helper()
		var body any
		if method == "PUT" {
			body = MutateRequest{Values: slices.Clone(dirty.Tuples[rng.Intn(dirty.Len())].Values)}
		}
		if code := c.do(method, fmt.Sprintf("/v1/sessions/%s/tuples/%d", id, row), body, nil); code != want {
			t.Fatalf("%s row %d: status %d, want %d", method, row, code, want)
		}
	}
	const muts = 54
	for i := 0; i < muts-1; i++ {
		switch i % 3 {
		case 0:
			mutate(c1, "PUT", next, http.StatusOK)
			live = append(live, next)
			next++
		case 1:
			mutate(c1, "PUT", live[rng.Intn(len(live))], http.StatusOK)
		default:
			at := rng.Intn(len(live) - 1) // never the highest row
			mutate(c1, "DELETE", live[at], http.StatusOK)
			live = slices.Delete(live, at, at+1)
		}
	}
	mutate(c1, "DELETE", next-1, http.StatusOK)
	served := func(c *client) [][]byte {
		var out [][]byte
		for v := 1; v <= 1+muts; v++ {
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
	before := served(c1)
	ts1.Close()
	srv1.Shutdown()

	loads, applies := deltaCounts()
	srv2 := newTestServer(t, cfg)
	defer srv2.Shutdown()
	if l, a := deltaCounts(); l-loads != 1 || a-applies != 0 {
		t.Fatalf("the restore ran %d Loads and %d Applies, want 1 and 0", l-loads, a-applies)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := &client{t: t, base: ts2.URL}
	// Three readers rebuild old versions at once while the test reads them
	// all: each rebuild runs under the session lock on an engine of its own.
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1 + r; v <= 1+muts; v += 3 {
				resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/result?version=%d", ts2.URL, id, v))
				if err != nil {
					t.Error(err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(b, before[2*(v-1)]) {
					t.Errorf("concurrent read of version %d after the restart: %v, or bytes differ", v, err)
				}
			}
		}()
	}
	after := served(c2)
	wg.Wait()
	if !slices.EqualFunc(before, after, bytes.Equal) {
		t.Fatal("a version re-served after the restart differs from what it served before")
	}
	sess, err := srv2.Manager().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	for v, ver := range sess.versions {
		if (ver != nil) != (v == muts) {
			t.Errorf("after reading every version, version %d resident: %v; want only the latest, %d", v+1, ver != nil, 1+muts)
		}
	}
	sess.mu.Unlock()
	// Row next-1 was the highest ever stored and is deleted: next is still
	// the only fresh row a PUT may insert.
	mutate(c2, "PUT", next+1, http.StatusUnprocessableEntity)
	mutate(c2, "PUT", next, http.StatusOK)
}

// TestFusionCapServedAcrossRestart serves core's fusion-cap fixture — 64
// rules "FD: A<i> -> A<i+1>" chained into one fusion component — over HTTP:
// the clean, then a PUT of a third (v, w) row. Each version's stats report
// as many capped fusions as core.Clean of its table (at least 2, then 3),
// and both re-serve byte-identically after a restart: version 2 through the
// folded log's Load, version 1 through a rebuild on read.
func TestFusionCapServedAcrossRestart(t *testing.T) {
	const n = 64
	attrs := make([]string, n+1)
	lines := make([]string, n)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
		if i < n {
			lines[i] = fmt.Sprintf("FD: A%d -> A%d", i, i+1)
		}
	}
	rs, err := rules.ParseList(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	row := func(a1 string) []string {
		vals := make([]string, n+1)
		for i := range vals {
			vals[i] = "v"
		}
		vals[1] = a1
		return vals
	}
	tb := dataset.NewTable(dataset.MustSchema(attrs...))
	for i := 0; i < 22; i++ {
		a1 := "v"
		if i >= 20 {
			a1 = "w"
		}
		tb.MustAppend(row(a1)...)
	}
	cfg := ManagerConfig{WALFS: wal.NewMemFS(wal.FaultPlan{})}
	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	c1 := &client{t: t, base: ts1.URL}
	id := createSession(c1, CreateRequest{Rules: strings.Join(lines, "\n"), Attrs: attrs, Tau: 1}).ID
	submitBatches(c1, id, splitRows(tb, 1))
	startClean(c1, id)
	pollDone(c1, id)
	if code := c1.do("PUT", fmt.Sprintf("/v1/sessions/%s/tuples/%d", id, tb.Len()), MutateRequest{Values: row("w")}, nil); code != http.StatusOK {
		t.Fatalf("PUT of the third (v, w) row: status %d", code)
	}
	grown := tb.Clone()
	grown.MustAppend(row("w")...)

	before := make([][]byte, 2)
	for v, table := range []*dataset.Table{tb, grown} {
		want, err := core.Clean(table, rs, core.Options{Tau: 1})
		if err != nil {
			t.Fatal(err)
		}
		var res ResultResponse
		if code := c1.do("GET", fmt.Sprintf("/v1/sessions/%s/result?version=%d", id, v+1), nil, &res); code != http.StatusOK {
			t.Fatalf("result version %d: status %d", v+1, code)
		}
		if res.Stats.FusionTruncated < 2+v || !reflect.DeepEqual(res.Stats, want.Stats) {
			t.Fatalf("version %d stats %+v, want core.Clean's %+v with at least %d capped fusions", v+1, res.Stats, want.Stats, 2+v)
		}
		_, before[v] = rawGet(t, c1.base, fmt.Sprintf("/v1/sessions/%s/result?version=%d", id, v+1))
	}
	ts1.Close()
	srv1.Shutdown()

	srv2 := newTestServer(t, cfg)
	defer srv2.Shutdown()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	for _, v := range []int{2, 1} {
		code, b := rawGet(t, ts2.URL, fmt.Sprintf("/v1/sessions/%s/result?version=%d", id, v))
		if code != http.StatusOK || !bytes.Equal(b, before[v-1]) {
			t.Fatalf("restart: version %d re-served status %d:\ngot  %s\nwant %s", v, code, b, before[v-1])
		}
	}
}
