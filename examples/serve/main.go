// Serve: the session API end to end — start the mlnserve handler on a
// loopback port, then act as a client: create a session, stream a dirty
// table in batches, trigger the clean, poll, and fetch the repairs. The
// first round then mutates the cleaned session tuple by tuple — PUT a
// replacement row, DELETE another — and each mutation mints a new result
// version, re-cleaned incrementally (the delta summary shows how many rule
// blocks and tuples were reused); old versions stay addressable via
// ?version=N and the trail pages with limit/cursor. A second session over
// the same table learns its own weights and serves the same result; it is
// the one rolled back — the pre-repair table restored from the server's log
// — before it is closed. Each round also pulls the repair audit trail (cell,
// old value, new value, attributed rule and weight).
//
// Against a real daemon the same requests work verbatim — set BASE:
//
//	go run ./cmd/mlnserve -addr :0     # prints the resolved address
//	BASE=http://localhost:7700 go run ./examples/serve
//
// Without BASE the walkthrough starts its own handler on an OS-chosen
// loopback port and prints the address, so reruns (and the CI smoke) never
// fail on an already-taken port.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"mlnclean/internal/datagen"
	"mlnclean/internal/errgen"
	"mlnclean/internal/server"
)

func main() {
	base := os.Getenv("BASE")
	if base == "" {
		// A real deployment runs `mlnserve`; here the handler serves
		// loopback on port 0.
		srv, err := server.New(server.ManagerConfig{})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Shutdown()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		base = ts.URL
		fmt.Printf("mlnserve handler listening at %s\n\n", base)
	} else {
		fmt.Printf("using external mlnserve at %s\n\n", base)
	}

	// The hospital workload: generate, corrupt, and describe the rules in
	// the wire syntax.
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Providers: 60, Measures: 10, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	rulesText := ""
	for i, r := range rs {
		if i > 0 {
			rulesText += "\n"
		}
		rulesText += r.Canonical()
	}
	dirty := inj.Dirty
	fmt.Printf("hospital table: %d tuples, %d attrs, %d rules, %d injected errors\n\n",
		dirty.Len(), dirty.Schema.Len(), len(rs), len(inj.Errors))

	for round := 1; round <= 2; round++ {
		// 1. Create a session.
		var info server.SessionInfo
		post(base+"/v1/sessions", server.CreateRequest{
			Rules: rulesText,
			Attrs: dirty.Schema.Attrs(),
			Tau:   2,
		}, &info)
		fmt.Printf("round %d: session %s\n", round, info.ID)

		// 2. Stream the table in three batches.
		per := (dirty.Len() + 2) / 3
		for lo := 0; lo < dirty.Len(); lo += per {
			hi := min(lo+per, dirty.Len())
			rows := make([][]string, 0, hi-lo)
			for _, t := range dirty.Tuples[lo:hi] {
				rows = append(rows, t.Values)
			}
			var ack server.TuplesResponse
			post(base+"/v1/sessions/"+info.ID+"/tuples", server.TuplesRequest{Rows: rows}, &ack)
			fmt.Printf("  streamed %d tuples (%d total)\n", ack.Received, ack.Total)
		}

		// 3. Trigger the clean and poll until done. While the run is (or was
		// just) in flight, scrape /metrics once — the same Prometheus
		// exposition a real deployment would have its collector pull.
		post(base+"/v1/sessions/"+info.ID+"/clean", nil, nil)
		scraped := false
		for {
			if !scraped {
				scrapeMetrics(base)
				scraped = true
			}
			var st server.SessionInfo
			get(base+"/v1/sessions/"+info.ID, &st)
			if st.State == server.StateDone {
				break
			}
			if st.State == server.StateFailed {
				log.Fatalf("session failed: %s", st.Error)
			}
			time.Sleep(20 * time.Millisecond)
		}

		// 4. Fetch the repairs.
		var res server.ResultResponse
		get(base+"/v1/sessions/"+info.ID+"/result", &res)
		fmt.Printf("  cleaned: %d rows, %d fused cells, %d duplicates removed, learned %d iterations, %d ms\n",
			len(res.Rows), res.Stats.FSCRCellChanges, res.Stats.DuplicatesRemoved,
			res.Stats.LearnIterations, res.WallMS)

		// 5. Audit: the ordered repair trail — every applied cell change with
		// the rule (and learned weight) it is attributed to.
		var audit server.RepairsResponse
		get(base+"/v1/sessions/"+info.ID+"/repairs", &audit)
		fmt.Printf("  audit trail: %d repairs\n", len(audit.Repairs))
		for i, rep := range audit.Repairs {
			if i == 3 {
				fmt.Printf("    ... and %d more\n", len(audit.Repairs)-3)
				break
			}
			fmt.Printf("    tuple %d %s: %q -> %q (rule %s, weight %.3f)\n",
				rep.Tuple, rep.Attr, rep.Old, rep.New, rep.Rule, rep.Weight)
		}

		// 6. Mutate (first round): replace one tuple and delete another.
		// Every acknowledged mutation re-cleans incrementally and mints the
		// next result version; version 1 keeps serving the clean.
		if round == 1 {
			freshest := append([]string(nil), dirty.Tuples[0].Values...)
			var ack server.MutateResponse
			put(base+"/v1/sessions/"+info.ID+"/tuples/3", server.MutateRequest{Values: freshest}, &ack)
			fmt.Printf("  PUT tuple 3 -> version %d (reused %d/%d rule blocks, %d/%d fused tuples)\n",
				ack.Version, ack.Delta.ReusedBlocks, ack.Delta.ReusedBlocks+ack.Delta.DirtyBlocks,
				ack.Delta.ReusedTuples, ack.Delta.ReusedTuples+ack.Delta.RefusedTuples)
			del(base + "/v1/sessions/" + info.ID + "/tuples/7")
			get(base+"/v1/sessions/"+info.ID, &info)
			fmt.Printf("  DELETE tuple 7 -> session now serves %d versions\n", info.Versions)

			// Versions are immutable: the delta-cleaned latest and the
			// original clean are both one GET away.
			var latest, v1 server.ResultResponse
			get(base+"/v1/sessions/"+info.ID+"/result", &latest)
			get(base+"/v1/sessions/"+info.ID+"/result?version=1", &v1)
			fmt.Printf("  result?version=%d: %d rows; result?version=1: %d rows (batch run, unchanged)\n",
				latest.Version, len(latest.Rows), len(v1.Rows))

			// The versioned audit trail pages with limit/cursor.
			var page server.RepairsResponse
			get(base+"/v1/sessions/"+info.ID+"/repairs?limit=5", &page)
			fmt.Printf("  repairs?limit=5: page of %d/%d repairs for version %d, next cursor %d\n",
				len(page.Repairs), page.Total, page.Version, page.NextCursor)
		}

		// 7. Rollback (final round): restore the pre-repair values from the
		// server's log and verify they match what was streamed.
		if round == 2 {
			var rb server.RollbackResponse
			post(base+"/v1/sessions/"+info.ID+"/rollback", nil, &rb)
			restored := 0
			for i, row := range rb.Rows {
				for j, v := range row {
					if dirty.Tuples[i].Values[j] == v {
						restored++
					}
				}
			}
			fmt.Printf("  rollback: reverted %d repairs, %d/%d cells match the original stream\n",
				rb.Reverted, restored, len(rb.Rows)*dirty.Schema.Len())
		}

		del(base + "/v1/sessions/" + info.ID)
	}
}

// scrapeMetrics pulls /metrics and prints a few series that tell the
// mid-clean story: the engine's load counter, how much stage work the
// process has accumulated, and how many requests the upload route served.
func scrapeMetrics(base string) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  /metrics mid-clean:")
	for _, line := range strings.Split(string(body), "\n") {
		for _, prefix := range []string{
			"mlnclean_core_delta_loads_total ",
			`mlnclean_core_stage_seconds_count{stage="agp"}`,
			`mlnserve_http_request_seconds_count{route="tuples"}`,
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Printf("    %s\n", line)
			}
		}
	}
}

func post(url string, body, out any) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			log.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func put(url string, body, out any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		log.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, &buf)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func del(url string) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
}

func decode(resp *http.Response, out any) {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		// Every error is the uniform envelope: {"error":{"code","message"}}.
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("%s %s: %s (%s: %s)", resp.Request.Method, resp.Request.URL.Path, resp.Status, e.Error.Code, e.Error.Message)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}
