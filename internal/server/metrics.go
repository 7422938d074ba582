package server

import (
	"net/http"
	"time"

	"mlnclean/internal/obs"
)

// Serving-layer instruments. Session-lifecycle counters are package-level
// (they survive Server re-creation in tests — counters only ever grow);
// point-in-time gauges over a particular Server's state are GaugeFuncs bound
// in New, latest-wins, so the most recently constructed Server is the one a
// scrape reflects.
var (
	mHTTPInFlight = obs.Default().Gauge("mlnserve_http_in_flight",
		"HTTP requests currently being served.")
	mHTTPResponses2xx = obs.Default().Counter("mlnserve_http_responses_total",
		"HTTP responses by status class.", obs.L("code", "2xx"))
	mHTTPResponses3xx = obs.Default().Counter("mlnserve_http_responses_total", "", obs.L("code", "3xx"))
	mHTTPResponses4xx = obs.Default().Counter("mlnserve_http_responses_total", "", obs.L("code", "4xx"))
	mHTTPResponses5xx = obs.Default().Counter("mlnserve_http_responses_total", "", obs.L("code", "5xx"))

	mSessionsCreated = obs.Default().Counter("mlnserve_sessions_created_total",
		"Sessions opened (POST /v1/sessions accepted).")
	mSessionsClosed = obs.Default().Counter("mlnserve_sessions_closed_total",
		"Sessions closed by explicit DELETE.")
	mSessionsEvicted = obs.Default().Counter("mlnserve_sessions_evicted_total",
		"Sessions evicted by the idle sweeper.")
	mCleansStarted = obs.Default().Counter("mlnserve_cleans_started_total",
		"Cleaning runs accepted (POST .../clean).")
	mCleansDone = obs.Default().Counter("mlnserve_cleans_completed_total",
		"Cleaning runs that reached the done state.")
	mCleansFailed = obs.Default().Counter("mlnserve_cleans_failed_total",
		"Cleaning runs that ended in the failed state.")
	mMutations = obs.Default().Counter("mlnserve_mutations_total",
		"Tuple mutations acknowledged (PUT/DELETE .../tuples/{row}).")
)

// httpResponses maps a status code to its class counter.
func httpResponses(status int) *obs.Counter {
	switch {
	case status >= 500:
		return mHTTPResponses5xx
	case status >= 400:
		return mHTTPResponses4xx
	case status >= 300:
		return mHTTPResponses3xx
	default:
		return mHTTPResponses2xx
	}
}

// statusWriter captures the response status for the per-route instruments.
// WriteHeader may never be called (implicit 200 on first Write), so Write
// latches the default.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with its route's latency histogram and the
// status-class counters. Per-route series are pre-registered at route
// registration, so the hot path is atomics only — the mux cannot tell us the
// matched pattern after dispatch (r.Pattern is set on the request the handler
// sees, not the one ServeHTTP returned from), hence wrapping at registration.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := obs.Default().Histogram("mlnserve_http_request_seconds",
		"HTTP request latency by route.", obs.DefBuckets, obs.L("route", route))
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		mHTTPInFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK // handler wrote nothing: implicit 200
		}
		mHTTPInFlight.Add(-1)
		hist.ObserveSince(t0)
		httpResponses(sw.status).Inc()
	}
}

// bindGauges (re-)binds the point-in-time GaugeFuncs to this Server's
// manager. GaugeFunc registration is latest-wins by design, so
// tests constructing many Servers always scrape the newest one's state.
func bindGauges(s *Server) {
	reg := obs.Default()
	reg.GaugeFunc("mlnserve_sessions_live",
		"Live sessions (any state).", func() float64 {
			return float64(s.mgr.Len())
		})
	reg.GaugeFunc("mlnserve_sessions_cleaning",
		"Sessions with a cleaning run in flight.", func() float64 {
			n := 0
			for _, info := range s.mgr.List() {
				if info.State == StateCleaning {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("mlnserve_uptime_seconds",
		"Seconds since this server was constructed.", func() float64 {
			return time.Since(s.started).Seconds()
		})
}
