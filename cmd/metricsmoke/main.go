// Command metricsmoke is the CI observability gate: pointed at a running
// mlnserve, it scrapes /metrics, drives one small cleaning session through
// the API, scrapes again, and fails unless
//
//   - every required metric family is present, by its exact name,
//   - the exposition carries at least -min-series distinct series,
//   - no counter or histogram series moved backwards between the scrapes,
//   - the session's work actually surfaced (the delta-loads counter, the
//     AGP stage and WAL fsync histograms and the clean route's latency
//     histogram strictly increased).
//
// Usage:
//
//	metricsmoke -base http://127.0.0.1:7731 [-min-series 25] [-wait 10s]
//
// The tool waits for /healthz before scraping, so CI can start the daemon
// and invoke metricsmoke immediately without its own polling loop. The
// target daemon must run with -data-dir: the WAL family's growth is part of
// the gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// requiredFamilies are the metric families the exposition must carry: every
// family mlnserve registers, each read by a recipe in README › Observability,
// or by the repository benchmark. The core and WAL families register at package
// init and the HTTP histogram as the routes register, so even an idle daemon
// must show all of them (at zero).
var requiredFamilies = []string{
	"mlnserve_http_request_seconds",
	"mlnclean_core_stage_seconds",
	"mlnclean_core_block_seconds",
	"mlnclean_core_agp_abnormal_groups_total",
	"mlnclean_core_agp_pairs_total",
	"mlnclean_core_agp_full_scans_total",
	"mlnclean_core_fscr_conflicts_total",
	"mlnclean_core_fscr_truncated_total",
	"mlnclean_core_delta_loads_total",
	"mlnclean_core_delta_dirty_blocks_total",
	"mlnclean_core_delta_reused_blocks_total",
	"mlnclean_core_delta_refused_tuples_total",
	"mlnclean_core_delta_reused_tuples_total",
	"mlnclean_core_delta_apply_seconds",
	"mlnclean_wal_fsync_seconds",
	"mlnclean_wal_append_bytes_total",
	"mlnclean_wal_compactions_total",
	"mlnclean_wal_recovery_records_total",
	"mlnclean_wal_recovery_truncated_bytes_total",
}

// mustGrow are the series one driven session must strictly increase. A
// session's clean is the delta engine's Load, which runs the block pipeline
// itself, so the core family is checked through the loads counter and the
// stage histogram. Every acknowledged WAL append is fsynced once, so the
// fsync histogram's count moves once per append.
var mustGrow = []string{
	"mlnclean_core_delta_loads_total",
	`mlnclean_core_stage_seconds_count{stage="agp"}`,
	"mlnclean_wal_fsync_seconds_count",
	`mlnserve_http_request_seconds_count{route="clean"}`,
}

func main() {
	var (
		base      = flag.String("base", "http://127.0.0.1:7731", "mlnserve base URL")
		minSeries = flag.Int("min-series", 25, "minimum distinct series the exposition must carry")
		wait      = flag.Duration("wait", 10*time.Second, "how long to wait for /healthz before giving up")
	)
	flag.Parse()
	if err := run(*base, *minSeries, *wait); err != nil {
		fmt.Fprintln(os.Stderr, "metricsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("metricsmoke: PASS")
}

func run(base string, minSeries int, wait time.Duration) error {
	if err := waitHealthy(base, wait); err != nil {
		return err
	}
	before, err := scrape(base)
	if err != nil {
		return fmt.Errorf("first scrape: %w", err)
	}
	if err := driveSession(base); err != nil {
		return fmt.Errorf("driving session: %w", err)
	}
	after, err := scrape(base)
	if err != nil {
		return fmt.Errorf("second scrape: %w", err)
	}

	// Family coverage and breadth, judged on the post-workload exposition.
	names := make(map[string]bool)
	for k := range after.samples {
		names[k] = true
	}
	for _, f := range requiredFamilies {
		if after.types[f] == "" {
			return fmt.Errorf("no metric family %q", f)
		}
	}
	if len(names) < minSeries {
		return fmt.Errorf("exposition carries %d series, want >= %d", len(names), minSeries)
	}

	// Monotonicity: counters and histogram components never move backwards.
	regressed, checked := 0, 0
	for key, v0 := range before.samples {
		if !before.monotonic(key) {
			continue
		}
		checked++
		v1, ok := after.samples[key]
		if !ok {
			return fmt.Errorf("series %s disappeared between scrapes", key)
		}
		if v1 < v0 {
			fmt.Fprintf(os.Stderr, "metricsmoke: %s went %v -> %v\n", key, v0, v1)
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d monotonic series moved backwards", regressed)
	}

	// The driven session's work must be visible.
	for _, name := range mustGrow {
		if after.samples[name] <= before.samples[name] {
			return fmt.Errorf("%s did not increase across the driven session (%v -> %v)",
				name, before.samples[name], after.samples[name])
		}
	}
	fmt.Printf("metricsmoke: %d series, %d families ok, %d monotonic series checked\n",
		len(names), len(requiredFamilies), checked)
	return nil
}

// exposition is one parsed Prometheus text scrape.
type exposition struct {
	types   map[string]string  // family name -> counter|gauge|histogram
	samples map[string]float64 // full series key (name{labels}) -> value
}

// monotonic reports whether a series key may never decrease: counter
// families, and a histogram's _bucket/_count/_sum components (observations
// here are durations and byte counts, never negative).
func (e *exposition) monotonic(key string) bool {
	name := key
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if e.types[name] == "counter" {
		return true
	}
	for _, suffix := range []string{"_bucket", "_count", "_sum"} {
		if fam, ok := strings.CutSuffix(name, suffix); ok && e.types[fam] == "histogram" {
			return true
		}
	}
	return false
}

func scrape(base string) (*exposition, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	e := &exposition{types: make(map[string]string), samples: make(map[string]float64)}
	for ln, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			e.types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// name{labels} value — the value is everything after the last space,
		// and label values never contain raw spaces (escaped by the writer).
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("line %d: malformed sample: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		e.samples[line[:sp]] = v
	}
	return e, nil
}

func waitHealthy(base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v (last: %v)", base, wait, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// driveSession runs one tiny clean end to end: enough to move the HTTP,
// core and WAL families.
func driveSession(base string) error {
	var sess struct {
		ID string `json:"id"`
	}
	if err := call("POST", base+"/v1/sessions", map[string]any{
		"rules": "FD: CT -> ST",
		"attrs": []string{"CT", "ST"},
	}, &sess); err != nil {
		return err
	}
	if err := call("POST", base+"/v1/sessions/"+sess.ID+"/tuples", map[string]any{
		"rows": [][]string{
			{"BOAZ", "AL"}, {"BOAZ", "AL"}, {"BOAZ", "AI"},
			{"GADSDEN", "AL"}, {"GADSDEN", "AL"},
		},
	}, nil); err != nil {
		return err
	}
	if err := call("POST", base+"/v1/sessions/"+sess.ID+"/clean", nil, nil); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := call("GET", base+"/v1/sessions/"+sess.ID, nil, &st); err != nil {
			return err
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" {
			return fmt.Errorf("session failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session never finished cleaning")
		}
		time.Sleep(50 * time.Millisecond)
	}
	return call("DELETE", base+"/v1/sessions/"+sess.ID, nil, nil)
}

func call(method, url string, body, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
