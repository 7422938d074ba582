// Command mlnserve is the long-running MLNClean cleaning service: an
// HTTP/JSON session API (create session → stream tuple batches → trigger
// clean → poll → fetch repairs → mutate tuples) over the incremental engine
// (core.DeltaCleaner), with a bounded session manager (idle eviction,
// backpressure). Every result version a session serves is core.Clean of that
// version's tuples.
//
// Usage:
//
//	mlnserve [-addr :7700] [-max-sessions 16] [-idle-timeout 10m]
//	         [-data-dir /var/lib/mlnserve] [-debug-addr :6060]
//	         [-log-format text|json] [-log-level info]
//
// -addr :0 binds an OS-chosen free port; the daemon always logs the
// resolved listen address on startup, so scripted runs (CI smokes, local
// walkthroughs) never collide with an already-taken port.
//
// -data-dir enables durability: every session input (create, tuple batch,
// clean start and completion marker, tuple mutation, rollback, close) is
// written to a write-ahead log under the directory before it is
// acknowledged. A restart on the same directory replays it: sessions resume,
// interrupted cleans restart, and each done session's engine loads its
// logged tuples with its mutations folded in, once, so every result version
// re-serves byte-identically (an older one is rebuilt when it is read). The recovery summary (sessions replayed /
// tombstoned / failed, truncated bytes) is logged on startup, and each
// session that could not be restored is logged at warn with its error;
// graceful shutdown flushes and fsyncs the log before exit.
//
// Observability: GET /metrics on the main address serves the process-wide
// Prometheus exposition (HTTP, session, core-stage, delta-engine, and WAL
// families; see README › Observability). -debug-addr starts a
// second loopback-intended listener serving net/http/pprof (profiles, heap,
// goroutine dumps); it is off by default and should never face the network.
// Logs are structured (log/slog): -log-format picks text or json,
// -log-level one of debug, info, warn, error. Every session line carries the
// session id and its run id.
//
// Walkthrough (a longer one is in README › Command-line tools; every route
// is in API.md):
//
//	curl -s localhost:7700/v1/sessions -d '{"rules":"FD: CT -> ST","attrs":["CT","ST"]}'
//	curl -s localhost:7700/v1/sessions/s-000001/tuples -d '{"rows":[["BOAZ","AL"],["BOAZ","AI"]]}'
//	curl -s -X POST localhost:7700/v1/sessions/s-000001/clean
//	curl -s localhost:7700/v1/sessions/s-000001/result
//	curl -s localhost:7700/metrics
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight HTTP requests
// drain, the log is flushed, and the process exits; a clean still in flight
// is dropped and runs again after a restart on the same -data-dir.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"mlnclean/internal/obs"
	"mlnclean/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":7700", "listen address (:0 picks a free port; the resolved address is logged)")
		maxSessions = flag.Int("max-sessions", 16, "concurrent session cap (backpressure past it)")
		idleTimeout = flag.Duration("idle-timeout", 10*time.Minute, "evict sessions idle this long")
		dataDir     = flag.String("data-dir", "", "write-ahead-log directory; enables durable sessions and crash recovery (empty = in-memory only)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off; keep it loopback)")
		logFormat   = flag.String("log-format", "text", "log output format: text|json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlnserve:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	cfg := server.ManagerConfig{
		MaxSessions: *maxSessions,
		IdleTimeout: *idleTimeout,
		DataDir:     *dataDir,
	}
	if err := run(*addr, *debugAddr, cfg); err != nil {
		slog.Error("mlnserve: fatal", "err", err)
		os.Exit(1)
	}
}

func run(addr, debugAddr string, cfg server.ManagerConfig) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if rec := srv.Recovery(); rec != nil {
		slog.Info("mlnserve: recovered write-ahead log", "dir", cfg.DataDir,
			"sessions_replayed", rec.SessionsReplayed, "sessions_tombstoned", rec.SessionsTombstoned,
			"sessions_failed", rec.SessionsFailed, "cleans_restarted", rec.CleansRestarted,
			"records", rec.Records, "truncated_bytes", rec.TruncatedBytes, "wall_ms", rec.WallMS)
	}
	httpSrv := &http.Server{
		Handler: srv,
		// Slow-client protection; no overall ReadTimeout because tuple
		// batches may legitimately stream for a while.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	// Bind before serving so -addr :0 works and the logged address is the
	// real one, not the flag text.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Shutdown()
		return err
	}

	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			srv.Shutdown()
			return fmt.Errorf("debug listener: %w", err)
		}
		go func() {
			slog.Info("mlnserve: pprof listening", "addr", dln.Addr().String())
			// DefaultServeMux carries the net/http/pprof registrations; the
			// main API mux never exposes them.
			if err := http.Serve(dln, http.DefaultServeMux); err != nil {
				slog.Warn("mlnserve: pprof server exited", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		slog.Info("mlnserve: listening", "addr", ln.Addr().String(),
			"max_sessions", cfg.MaxSessions, "idle_timeout", cfg.IdleTimeout)
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		srv.Shutdown()
		return err
	case <-ctx.Done():
	}

	slog.Info("mlnserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	// Shutdown flushes, fsyncs, and closes the WAL (no tombstones): a
	// restart on the same -data-dir resumes every session.
	srv.Shutdown()
	if cfg.DataDir != "" {
		slog.Info("mlnserve: wal flushed and closed")
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
