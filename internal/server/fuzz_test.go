package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// Fuzz targets of FuzzServeRequestBodies: which v1 endpoint the body goes to.
const (
	fuzzCreate = iota // POST /v1/sessions
	fuzzTuples        // POST /v1/sessions/{id}/tuples, to a fresh open session
	fuzzPut           // PUT /v1/sessions/{id}/tuples/{row}, to the done session
	fuzzTargets
)

// FuzzServeRequestBodies sends hostile bytes as the body of every v1 request
// that carries one, against a volatile server holding one small done
// session. Whatever the bytes, the server must not panic, must not answer
// 5xx, and must answer every non-2xx in the error envelope with a code.
func FuzzServeRequestBodies(f *testing.F) {
	srv, err := New(ManagerConfig{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Shutdown)
	m := srv.Manager()
	// newDone is a small session, cleaned. PUTs that land add versions the
	// session keeps, so the fuzz loop swaps in a fresh one now and then.
	newDone := func(tb testing.TB) *Session {
		s, err := m.Create(testCreateReq())
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Submit([][]string{{"BOAZ", "AL"}, {"BOAZ", "AL"}, {"BOAZ", "AK"}, {"DOTHAN", "AL"}}); err != nil {
			tb.Fatal(err)
		}
		if err := s.Clean(); err != nil {
			tb.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); s.Info().State != StateDone; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				tb.Fatalf("the fixture session never finished cleaning: %+v", s.Info())
			}
		}
		return s
	}
	done := newDone(f)

	for _, seed := range []struct {
		target uint8
		row    int64
		body   string
	}{
		{fuzzCreate, 0, `{"rules":"FD: CT -> ST","attrs":["CT","ST"]}`},
		{fuzzCreate, 0, `{"rules":"FD: CT -> ST","attrs":["CT","ST"],"tau":-3,"metric":"cosin"}`},
		{fuzzCreate, 0, `{"rules":"FD: CT -> XX","attrs":["CT","CT"]}`},
		{fuzzCreate, 0, `{"rules":"FD: CT -> ST","attrs":["CT"`},
		{fuzzCreate, 0, "{\"rules\":\"FD: CT -> ST\xff\",\"attrs\":[\"C\xfeT\",\"ST\"]}"},
		{fuzzCreate, 0, `null`},
		{fuzzTuples, 0, `{"rows":[["BOAZ","AL"],["DOTHAN","AK"]]}`},
		{fuzzTuples, 0, `{"rows":[["BOAZ"],["BOAZ","AL","extra"]]}`},
		{fuzzTuples, 0, `{"rows":[["BOAZ","AL"],["DOT`},
		{fuzzTuples, 0, "{\"rows\":[[\"\xff\xfe\",\"\xc3\"]]}"},
		{fuzzTuples, 0, `{"rows":[[1,2]]}`},
		{fuzzPut, 0, `{"values":["BOAZ","AK"]}`},
		{fuzzPut, 4, `{"values":["TROY","AL"]}`},
		{fuzzPut, 1, `{"values":["BOAZ"]}`},
		{fuzzPut, 1 << 62, `{"values":["BOAZ","AL"]}`},
		{fuzzPut, -1, `{"values":["BOAZ","AL"]}`},
		{fuzzPut, 2, "{\"values\":[\"\xff\",\"AL\"]}"},
		{fuzzPut, 2, `{"values":`},
		{fuzzPut, 2, `{"values":null}`},
	} {
		f.Add(seed.target, seed.row, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, target uint8, row int64, body []byte) {
		var method, path string
		switch target % fuzzTargets {
		case fuzzCreate:
			method, path = "POST", "/v1/sessions"
		case fuzzTuples:
			open, err := m.Create(testCreateReq())
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close(open.ID)
			method, path = "POST", "/v1/sessions/"+open.ID+"/tuples"
		case fuzzPut:
			if done.LatestVersion() > 64 {
				if err := m.Close(done.ID); err != nil {
					t.Fatal(err)
				}
				done = newDone(t)
			}
			method, path = "PUT", "/v1/sessions/"+done.ID+"/tuples/"+strconv.FormatInt(row, 10)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if w.Code == http.StatusCreated && target%fuzzTargets == fuzzCreate {
			// Free the slot, so later creates are validated rather than
			// refused at the session cap.
			var info SessionInfo
			if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
				t.Fatalf("create answered 201 with an undecodable session: %v", err)
			}
			if err := m.Close(info.ID); err != nil {
				t.Fatal(err)
			}
		}
		if w.Code >= 500 {
			t.Fatalf("%s %s: status %d for body %q: %s", method, path, w.Code, body, w.Body)
		}
		if w.Code >= 300 {
			var env errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
				t.Fatalf("%s %s: status %d answered outside the error envelope (%v): %s", method, path, w.Code, err, w.Body)
			}
		}
	})
}
