package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"mlnclean/internal/wal"
)

// The manager's durability boundary. Every session mutation is one WAL
// record — plain old data, gob-framed — appended (and fsynced) before the
// mutation is acknowledged to the client. On restart the manager replays
// snapshot + records into a replayState and rebuilds the live world from it:
// open sessions get their logged batches back, interrupted cleans restart,
// and a done session's batches and mutations are folded into its latest
// table, which its engine loads once — one full clean per done session, not
// one Apply per logged mutation. The log holds only what sessions were given
// — requests, tuples, mutations — and markers of what happened to them; every
// result version, the first included, is a function of a log prefix and is
// re-derived by the deterministic engine, so it re-serves byte-identically
// without ever being stored. An older version read after a restart costs one
// full clean of its own folded table.
//
// Fields a record or the create request once had (the executor's workers,
// plan, seed, ...) are still in old logs: gob matches fields by name and skips
// the ones the receiving struct no longer has, so those logs keep replaying.
//
// Record order is the source of truth: a tombstone is logged before the
// session disappears from the manager, so an acknowledged eviction or DELETE
// can never resurrect.

// Record is a WAL record payload.
type Record interface{ isRecord() }

// recCreate opens a session: its id plus the full create request, which is
// everything needed to rebuild it (rules text, schema, τ, metric, ...).
type recCreate struct {
	ID      string
	Req     CreateRequest
	Created int64 // unix nanoseconds, informational
	// RunID is the session's log-correlation tag; pre-run-ID logs decode it
	// empty and the restore generates a fresh one.
	RunID string
}

// recBatch is one Submit.
type recBatch struct {
	ID   string
	Rows [][]string
}

// recCleanStart marks the run in flight; a start with no matching
// recCleanDone at replay means the crash interrupted the run, and the
// manager restarts it from the logged batches.
type recCleanStart struct{ ID string }

// recCleanDone marks the run completed; replay re-derives its versions by
// loading the engine with the folded log. WallMS is the only thing about the
// run the engine cannot reproduce. Older builds logged the result table,
// stats and trail here too; gob skips those fields.
type recCleanDone struct {
	ID     string
	WallMS int64
}

// recRepairs (the audit trail, logged after recCleanDone by older builds) and
// recWeights (the learned weight vector, logged for a model cache that no
// longer exists) are never written and ignored by apply, but must stay
// registered: decodeRecord is the log's Validate hook, so an unknown record
// kind would truncate an old log at its first such record and drop every
// session logged after it. gob skips the fields.
type (
	recRepairs struct{}
	recWeights struct{}
)

// recMutation is one acknowledged tuple mutation (PUT or DELETE of a row)
// against a done session. Replay folds the sequence into the session's table
// (foldTable) and loads that once; the engine is deterministic, so every
// result version — the latest loaded, an older one rebuilt from the fold cut
// at it — re-serves byte-identically without the versions being persisted.
type recMutation struct {
	ID     string
	Op     string // "put" | "delete"
	Row    int
	Values []string // schema order; nil for delete
}

// recRollback marks the session's repairs reverted; replay re-serves the
// pre-repair table.
type recRollback struct{ ID string }

// recTombstone ends a session (explicit DELETE or idle eviction). Logged
// before the session is removed, so an evicted session never resurrects.
type recTombstone struct{ ID string }

func (recCreate) isRecord()     {}
func (recBatch) isRecord()      {}
func (recCleanStart) isRecord() {}
func (recCleanDone) isRecord()  {}
func (recRepairs) isRecord()    {}
func (recWeights) isRecord()    {}
func (recMutation) isRecord()   {}
func (recRollback) isRecord()   {}
func (recTombstone) isRecord()  {}

func init() {
	gob.Register(recCreate{})
	gob.Register(recBatch{})
	gob.Register(recCleanStart{})
	gob.Register(recCleanDone{})
	gob.Register(recRepairs{})
	gob.Register(recWeights{})
	gob.Register(recMutation{})
	gob.Register(recRollback{})
	gob.Register(recTombstone{})
}

// encodeRecord frames a record for the log.
func encodeRecord(r Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&r); err != nil {
		return nil, fmt.Errorf("server: encode wal record %T: %w", r, err)
	}
	return buf.Bytes(), nil
}

// decodeRecord is the inverse of encodeRecord.
func decodeRecord(b []byte) (Record, error) {
	var r Record
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
		return nil, fmt.Errorf("server: decode wal record: %w", err)
	}
	return r, nil
}

// sessSnap is one session's durable state inside a snapshot / replayState.
type sessSnap struct {
	Req        CreateRequest
	Created    int64
	RunID      string
	Batches    [][][]string
	Cleaning   bool
	Done       *recCleanDone
	RolledBack bool
	// Mutations is the acknowledged tuple-mutation sequence (old snapshots
	// decode it empty). Replay folds it with Batches into the table the
	// engine loads once; any result version is a prefix of it.
	Mutations []recMutation
}

// replayState is the fold of the log: the state a restart rebuilds from. The
// walStore maintains a live mirror of it record by record, so compaction can
// snapshot without consulting (or locking) the live sessions.
type replayState struct {
	Seq        int // highest session sequence number ever issued
	Order      []string
	Sessions   map[string]*sessSnap
	Tombstones int
}

func newReplayState() *replayState {
	return &replayState{Sessions: make(map[string]*sessSnap)}
}

// apply folds one record into the state. Records referencing unknown
// sessions (tombstoned earlier in the log) are no-ops, never errors: the log
// is replayed as far as it is valid, and validity was checked frame by frame.
func (st *replayState) apply(rec Record) {
	switch r := rec.(type) {
	case recCreate:
		var n int
		if _, err := fmt.Sscanf(r.ID, "s-%d", &n); err == nil && n > st.Seq {
			st.Seq = n
		}
		if _, ok := st.Sessions[r.ID]; ok {
			return
		}
		st.Sessions[r.ID] = &sessSnap{Req: r.Req, Created: r.Created, RunID: r.RunID}
		st.Order = append(st.Order, r.ID)
	case recBatch:
		if s := st.Sessions[r.ID]; s != nil {
			s.Batches = append(s.Batches, r.Rows)
		}
	case recCleanStart:
		if s := st.Sessions[r.ID]; s != nil {
			s.Cleaning = true
		}
	case recCleanDone:
		if s := st.Sessions[r.ID]; s != nil {
			s.Done = &r
			s.Cleaning = false
		}
	case recMutation:
		if s := st.Sessions[r.ID]; s != nil {
			s.Mutations = append(s.Mutations, r)
		}
	case recRollback:
		if s := st.Sessions[r.ID]; s != nil {
			s.RolledBack = true
		}
	case recTombstone:
		if _, ok := st.Sessions[r.ID]; ok {
			delete(st.Sessions, r.ID)
			for i, id := range st.Order {
				if id == r.ID {
					st.Order = append(st.Order[:i], st.Order[i+1:]...)
					break
				}
			}
			st.Tombstones++
		}
	}
}

// encodeState frames the fold as a snapshot payload.
func encodeState(st *replayState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("server: encode wal snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeState(b []byte) (*replayState, error) {
	st := newReplayState()
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(st); err != nil {
		return nil, fmt.Errorf("server: decode wal snapshot: %w", err)
	}
	if st.Sessions == nil {
		st.Sessions = make(map[string]*sessSnap)
	}
	return st, nil
}

// walStore owns the manager's log handle plus the replayState mirror it
// snapshots from. It takes no session or manager locks (lock order is
// session/manager → walStore, never back), and append is atomic: the record
// is durably on disk and folded into the mirror, or neither.
type walStore struct {
	mu      sync.Mutex
	log     *wal.Log
	st      *replayState
	every   int // records between compactions
	pending int
}

// append durably logs one record. An error means the record is NOT
// acknowledged-durable — the caller must fail the client request — and the
// underlying log is latched broken (fail-stop), so no later record can be
// durable either; in-memory serving continues, durability has stopped.
func (w *walStore) append(rec Record) error {
	if w == nil {
		return nil
	}
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.log.Append(payload); err != nil {
		return err
	}
	w.st.apply(rec)
	w.pending++
	if w.pending >= w.every {
		if snap, err := encodeState(w.st); err == nil {
			if err := w.log.Compact(snap); err == nil {
				w.pending = 0
			}
		}
	}
	return nil
}

// sync flushes the log (graceful-shutdown path).
func (w *walStore) sync() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Sync()
}

// close flushes and closes the log. Idempotent.
func (w *walStore) close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Close()
}

// RecoverySummary reports what a restart rebuilt from the data directory.
type RecoverySummary struct {
	// SessionsReplayed counts live sessions rebuilt (open, cleaning, done).
	SessionsReplayed int `json:"sessions_replayed"`
	// SessionsTombstoned counts sessions the log ended (closed or evicted)
	// and replay therefore did not resurrect.
	SessionsTombstoned int `json:"sessions_tombstoned"`
	// SessionsFailed counts logged sessions that could not be rebuilt (e.g.
	// rules this build's parser or fusion-width check rejects, or logged
	// tuples the engine cannot load); each is logged at Warn.
	SessionsFailed int `json:"sessions_failed,omitempty"`
	// CleansRestarted counts interrupted runs replay started over.
	CleansRestarted int `json:"cleans_restarted"`
	// Records is the number of log records replayed (snapshot excluded).
	Records int `json:"records"`
	// TruncatedBytes is the corrupt/torn tail recovery cut off, zero for a
	// clean shutdown.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// WallMS is the replay's wall time in milliseconds: opening and folding
	// the log, and rebuilding every session it restored (one Load per done
	// session). Interrupted cleans it restarted run after it, as any clean.
	WallMS float64 `json:"wall_ms"`
}

func (r *RecoverySummary) String() string {
	return fmt.Sprintf("sessions replayed=%d tombstoned=%d failed=%d cleans restarted=%d records=%d truncated bytes=%d wall=%.1fms",
		r.SessionsReplayed, r.SessionsTombstoned, r.SessionsFailed, r.CleansRestarted, r.Records, r.TruncatedBytes, r.WallMS)
}

// openWAL opens (or disables) durability for a manager config: an injected
// filesystem wins, else DataDir, else durability is off.
func openWAL(cfg ManagerConfig) (wal.FS, error) {
	if cfg.WALFS != nil {
		return cfg.WALFS, nil
	}
	if cfg.DataDir != "" {
		return wal.DirFS(cfg.DataDir)
	}
	return nil, nil
}
