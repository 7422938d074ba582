package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewRunID returns a fresh 16-hex-char correlation ID. A served session's
// run ID tags its log lines and WAL records, so it survives recovery
// replays; a distributed run reports its own in Result.RunID. They are
// opaque and random: nothing in the pipeline may branch on one.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; correlation
		// degrades to a constant rather than taking the pipeline down.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// NewLogger builds a slog.Logger writing to w. format is "text" or "json";
// level is "debug", "info", "warn", or "error". Unknown values fall back to
// text/info with an error so flag typos surface instead of silently
// changing verbosity.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return slog.New(slog.NewTextHandler(w, nil)), fmt.Errorf("obs: unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return slog.New(slog.NewTextHandler(w, opts)), fmt.Errorf("obs: unknown log format %q", format)
	}
}
