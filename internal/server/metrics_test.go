package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsEndpoint drives one session end to end and then scrapes
// /metrics and /v1/stats: the exposition must be valid Prometheus text
// carrying the series the run just exercised and none of the removed ones
// (no gauge of any kind), the session
// must report a run id, and stats must expose uptime and build identity.
func TestMetricsEndpoint(t *testing.T) {
	dirty, _, rulesText := hospitalFixture(t)
	srv := newTestServer(t, ManagerConfig{DefaultWorkers: 2})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL}

	info, _ := c.runSession(CreateRequest{Rules: rulesText, Attrs: dirty.Schema.Attrs(), Tau: 2}, dirty, 3)
	if len(info.RunID) != 16 {
		t.Fatalf("session run id = %q, want 16 hex chars", info.RunID)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// One representative series per family the run must have touched. The
	// instruments are process-global, so the exact values depend on test
	// order — presence and form are what this test pins.
	for _, want := range []string{
		`mlnserve_http_request_seconds_count{route="create"}`,
		`mlnserve_http_request_seconds_count{route="clean"}`,
		"mlnclean_core_stage_seconds_count",
		"mlnclean_core_delta_loads_total",
		"# TYPE mlnserve_http_request_seconds histogram",
		"# HELP mlnclean_core_delta_loads_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	// The serving layer keeps no session, clean or status-class counters and
	// no gauges: GET /v1/stats reports sessions and uptime.
	for _, gone := range []string{"mlnserve_sessions_", "mlnserve_cleans_", "mlnserve_http_responses_total", "mlnserve_uptime_seconds", " gauge\n"} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still carries %q", gone)
		}
	}

	var stats StatsResponse
	if code := c.do("GET", "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", stats.UptimeSeconds)
	}
	if stats.Build.GoVersion == "" {
		t.Error("build.go_version is empty")
	}
}
