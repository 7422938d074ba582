package server

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/obs"
	"mlnclean/internal/rules"
	"mlnclean/internal/wal"
)

// SessionState is a session's lifecycle position.
type SessionState string

const (
	// StateOpen accepts tuple batches.
	StateOpen SessionState = "open"
	// StateCleaning has a run in flight.
	StateCleaning SessionState = "cleaning"
	// StateDone holds a result.
	StateDone SessionState = "done"
	// StateFailed holds an error.
	StateFailed SessionState = "failed"
)

// ErrBusy is returned by Create when the manager is at MaxSessions; clients
// should back off and retry (the API maps it to 429).
var ErrBusy = fmt.Errorf("server: session limit reached, retry later")

// ErrNotFound is returned for unknown or already-closed session ids.
var ErrNotFound = fmt.Errorf("server: no such session")

// ErrBadInput wraps client-input validation failures (malformed rows), so
// the API can answer 400 instead of the 409 reserved for state conflicts.
var ErrBadInput = fmt.Errorf("server: bad input")

// ErrDurability wraps write-ahead-log failures: the mutation could not be
// made durable, so it was not acknowledged. The log is fail-stop — once it
// breaks, every subsequent durable mutation fails the same way (the API maps
// it to 500).
var ErrDurability = fmt.Errorf("server: durability failure")

// ErrInvalid wraps semantically invalid requests — well-formed JSON whose
// content the session cannot act on (a tuple PUT with the wrong arity, a row
// id outside the addressable range, an unparseable version or cursor). The
// API maps it to 422, distinct from the 400 reserved for undecodable bodies.
var ErrInvalid = fmt.Errorf("server: invalid request")

// CreateRequest are the parameters of a new cleaning session.
type CreateRequest struct {
	// Rules is the constraint set, one per line (internal/rules syntax).
	Rules string `json:"rules"`
	// Attrs is the table schema, in column order.
	Attrs []string `json:"attrs"`
	// Workers is accepted and never read; ROADMAP item 9b deletes it.
	Workers int `json:"workers,omitempty"`
	// Transport is accepted and never read; ROADMAP item 9b deletes it.
	Transport string `json:"transport,omitempty"`
	// Tau is the AGP threshold τ (default 1).
	Tau int `json:"tau,omitempty"`
	// Metric names the distance metric: levenshtein|cosine.
	Metric string `json:"metric,omitempty"`
	// KeepDuplicates skips duplicate elimination in the result.
	KeepDuplicates bool `json:"keep_duplicates,omitempty"`
	// FreshWeights is accepted and never read (every session learns from its
	// own tuples); ROADMAP item 9b deletes it.
	FreshWeights bool `json:"fresh_weights,omitempty"`
}

// Session is one client's cleaning conversation: a schema, a parsed rule
// set, the streamed tuples, and the one engine every result version of the
// session comes from — Clean is DeltaCleaner.Load of the tuples, a tuple
// mutation is Apply.
type Session struct {
	ID string
	// runID correlates the session's log lines; generated at create, persisted
	// in the WAL, never an input to the cleaning outcome.
	runID string

	mu        sync.Mutex
	state     SessionState
	closed    bool // set by close; an in-flight clean drops its result on it
	rules     []*rules.Rule
	rulesHash string // rules.CanonicalHash of the rule set
	schema    *dataset.Schema
	tuples    int
	batches   [][][]string // streamed rows, per Submit call (audit + replay)
	created   time.Time
	lastUsed  time.Time
	runErr    error
	rolled    *dataset.Table // pre-repair table, non-nil once rolled back
	wal       *walStore      // nil when durability is off

	// delta is built (empty) at create, so a rule set it cannot run fails the
	// create. The clean loads it; a done session restored from the WAL is
	// loaded with its folded log before it is published. opts are the
	// options it runs under, for an engine that rebuilds an old version.
	delta *core.DeltaCleaner
	opts  core.Options
	// nextRow is the dense-id high-water mark: one past the largest row id
	// ever stored (not max(live id)+1), the only fresh id a PUT may insert at.
	nextRow int
	// mutLog is the durable mutation sequence (restored from the WAL).
	// versions[i] serves result version i+1: entry 0 is the clean, entry i the
	// table after the first i mutations. After a restart only the latest is
	// resident, loaded from the folded log; a nil entry is rebuilt on read
	// (Versioned), byte-identically, because the engine is deterministic.
	mutLog   []recMutation
	versions []*core.Version
	// wallMS is the clean's wall time, which version 1 serves.
	wallMS int64
}

// SessionInfo is a session's externally visible status snapshot. It carries
// no repair count: version 1's is the total of GET repairs?version=1.
type SessionInfo struct {
	ID string `json:"id"`
	// RunID is the correlation tag the session's log lines carry; stable
	// across restarts of a durable server.
	RunID      string       `json:"run_id"`
	State      SessionState `json:"state"`
	RulesHash  string       `json:"rules_hash"`
	Tuples     int          `json:"tuples"`
	RolledBack bool         `json:"rolled_back,omitempty"`
	// Versions is the number of result versions the session serves: 1 for
	// the clean, plus one per applied tuple mutation. Zero until the session
	// is done.
	Versions   int       `json:"versions,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	LastUsedAt time.Time `json:"last_used_at"`
	Error      string    `json:"error,omitempty"`
}

// Info snapshots the session's status.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := SessionInfo{
		ID:         s.ID,
		RunID:      s.runID,
		State:      s.state,
		RulesHash:  s.rulesHash,
		Tuples:     s.tuples,
		RolledBack: s.rolled != nil,
		CreatedAt:  s.created,
		LastUsedAt: s.lastUsed,
	}
	if s.state == StateDone {
		info.Versions = 1 + len(s.mutLog)
	}
	if s.runErr != nil {
		info.Error = s.runErr.Error()
	}
	return info
}

// Submit appends one batch of rows to the session. Only valid while the
// session is open. The session logs and keeps rows as given, and its engine
// adopts them as tuple values: the caller must not write rows or their
// slices afterwards.
func (s *Session) Submit(rows [][]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrNotFound
	}
	if s.state != StateOpen {
		return fmt.Errorf("server: session %s is %s, not accepting tuples", s.ID, s.state)
	}
	for i, row := range rows {
		if len(row) != s.schema.Len() {
			return fmt.Errorf("%w: batch row %d has %d values, schema has %d", ErrBadInput, i, len(row), s.schema.Len())
		}
	}
	if err := s.wal.append(recBatch{ID: s.ID, Rows: rows}); err != nil {
		return fmt.Errorf("%w: session %s: %v", ErrDurability, s.ID, err)
	}
	s.batches = append(s.batches, rows)
	s.tuples += len(rows)
	s.lastUsed = time.Now()
	return nil
}

// Clean starts the cleaning run asynchronously; poll Info until the state
// leaves StateCleaning, then fetch the result.
func (s *Session) Clean() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrNotFound
	}
	if s.state != StateOpen {
		return fmt.Errorf("server: session %s is %s, cannot clean", s.ID, s.state)
	}
	if s.tuples == 0 {
		return fmt.Errorf("server: session %s has no tuples", s.ID)
	}
	if err := s.wal.append(recCleanStart{ID: s.ID}); err != nil {
		return fmt.Errorf("%w: session %s: %v", ErrDurability, s.ID, err)
	}
	s.state = StateCleaning
	s.lastUsed = time.Now()
	mCleansStarted.Inc()
	slog.Info("server: clean started", "session", s.ID, "run", s.runID, "tuples", s.tuples)
	go s.runClean()
	return nil
}

// runClean is the body of a clean: load the engine with the streamed tuples
// — nothing else touches it or the batches while the session is cleaning —
// and publish the result as version 1.
func (s *Session) runClean() {
	t0 := time.Now()
	v1, nextRow, err := s.loadEngine(s.delta, 0)
	wall := time.Since(t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Closed (or shut down) mid-run: the result has no session to go to.
		// After a shutdown, the restart runs the clean again from the log.
		slog.Info("server: clean dropped, session closed", "session", s.ID, "run", s.runID)
		return
	}
	s.lastUsed = time.Now()
	if err != nil {
		s.state = StateFailed
		s.runErr = err
		mCleansFailed.Inc()
		slog.Warn("server: clean failed", "session", s.ID, "run", s.runID, "err", err)
		return
	}
	// Log the completion marker before the done state becomes observable: a
	// poller that saw "done" must find the session done after a crash. A
	// completion that could not be logged is still served from memory; after
	// a restart the clean runs again from the logged batches and reproduces
	// the same bytes.
	s.wallMS = wall.Milliseconds()
	if err := s.wal.append(recCleanDone{ID: s.ID, WallMS: s.wallMS}); err != nil {
		slog.Warn("server: clean completion not logged", "session", s.ID, "run", s.runID, "err", err)
	}
	s.state = StateDone
	s.versions = []*core.Version{v1}
	s.nextRow = nextRow
	mCleansDone.Inc()
	slog.Info("server: clean done",
		"session", s.ID, "run", s.runID, "rows", v1.Stats().Tuples-v1.Stats().DuplicatesRemoved, "repairs", v1.TrailLen(),
		"wall", wall.Round(time.Millisecond))
}

// Rollback restores the pre-repair table from the session's logged batches:
// after it, Result serves the original streamed values (flagged rolled
// back). Idempotent; only valid on a done session.
func (s *Session) Rollback() (*dataset.Table, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateDone {
		return nil, 0, fmt.Errorf("server: session %s is %s, cannot roll back", s.ID, s.state)
	}
	if len(s.mutLog) > 0 {
		// The audit trail rollback restores predates the mutations; reverting
		// it under them would serve a table no version ever described.
		return nil, 0, fmt.Errorf("server: session %s has %d tuple mutations, cannot roll back", s.ID, len(s.mutLog))
	}
	// With no mutations, version 1 is the latest, so it is resident.
	reverted := s.versions[0].TrailLen()
	if s.rolled != nil {
		return s.rolled, reverted, nil
	}
	tb, _, err := foldTable(s.schema, s.batches, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := s.wal.append(recRollback{ID: s.ID}); err != nil {
		return nil, 0, fmt.Errorf("%w: session %s: %v", ErrDurability, s.ID, err)
	}
	s.rolled = tb
	s.lastUsed = time.Now()
	return tb, reverted, nil
}

// Restored returns the pre-repair table when the session has been rolled
// back, else nil (serve the cleaned result).
func (s *Session) Restored() *dataset.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rolled
}

// close marks the session closed: it accepts nothing more, and a clean still
// in flight drops its result instead of logging or publishing it. Idempotent.
func (s *Session) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// ManagerConfig bounds the session manager.
type ManagerConfig struct {
	// MaxSessions is the concurrent-session cap; Create returns ErrBusy at
	// the cap (backpressure). Default 16.
	MaxSessions int
	// IdleTimeout evicts sessions untouched for this long (cleaning
	// sessions are exempt while the run is in flight). Default 10m.
	IdleTimeout time.Duration
	// SweepInterval is how often the eviction sweep runs. Default
	// IdleTimeout/4, floored at 100ms.
	SweepInterval time.Duration
	// DefaultWorkers is accepted and never read; ROADMAP item 9b deletes it.
	DefaultWorkers int
	// DataDir enables durability: every session mutation is written to a
	// write-ahead log under this directory before it is acknowledged, and a
	// restart on the same directory replays it — sessions rebuilt, each done
	// session's logged tuples and mutations folded into its latest table and
	// loaded once, so a restart costs one full clean per done session
	// whatever its age. Every result version re-serves byte-identically; an
	// older one read after a restart costs one full clean of its table. Empty
	// (and WALFS nil) means in-memory only, the pre-durability behavior.
	DataDir string
	// WALFS overrides the log's filesystem (tests inject the fault-injecting
	// crash-simulating wal.MemFS). Takes precedence over DataDir.
	WALFS wal.FS
	// SnapshotEvery compacts the log into a snapshot every N records
	// (default 256). Smaller is tighter disk usage, larger is fewer
	// compaction pauses.
	SnapshotEvery int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.IdleTimeout / 4
		if c.SweepInterval < 100*time.Millisecond {
			c.SweepInterval = 100 * time.Millisecond
		}
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// Manager owns the live sessions: bounded creation, lookup, idle eviction,
// and shutdown. All methods are safe for concurrent use.
type Manager struct {
	cfg ManagerConfig
	wal *walStore // nil when durability is off
	rec *RecoverySummary

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int
	closed   bool

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// NewManager starts a session manager (and its eviction sweeper). With
// durability configured (DataDir or WALFS) it first replays the write-ahead
// log: rebuilds logged sessions, restarts interrupted cleans, and positions
// the log for appending.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	m := &Manager{
		cfg:       cfg.withDefaults(),
		sessions:  make(map[string]*Session),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	fs, err := openWAL(m.cfg)
	if err != nil {
		return nil, err
	}
	if fs != nil {
		if err := m.replay(fs); err != nil {
			return nil, err
		}
	}
	go m.sweep()
	return m, nil
}

// Recovery reports what the manager replayed at startup; nil when
// durability is off.
func (m *Manager) Recovery() *RecoverySummary { return m.rec }

// replay opens the log on fs, folds its surviving records, and rebuilds the
// live world. Sessions restore in creation order; restored sessions do not
// count against MaxSessions (they were admitted before the restart).
func (m *Manager) replay(fs wal.FS) error {
	t0 := time.Now()
	// The Validate hook decodes every surviving record, in log order, and
	// truncates at the first it cannot: what it decoded is the tail to fold.
	var tail []Record
	lg, rec, err := wal.Open(fs, wal.Options{
		Validate: func(p []byte) error {
			r, err := decodeRecord(p)
			if err == nil {
				tail = append(tail, r)
			}
			return err
		},
	})
	if err != nil {
		return err
	}
	st := newReplayState()
	if rec.Snapshot != nil {
		if st, err = decodeState(rec.Snapshot); err != nil {
			lg.Close()
			return err
		}
	}
	for _, r := range tail {
		st.apply(r)
	}
	sum := &RecoverySummary{
		SessionsTombstoned: st.Tombstones,
		Records:            len(rec.Records),
		TruncatedBytes:     rec.TruncatedBytes,
	}
	m.seq = st.Seq
	var restart []*Session
	for _, id := range st.Order {
		s, err := m.restore(id, st.Sessions[id])
		if err != nil {
			sum.SessionsFailed++
			slog.Warn("server: session not restored", "session", id, "err", err)
			continue
		}
		m.sessions[id] = s
		sum.SessionsReplayed++
		if st.Sessions[id].Cleaning {
			restart = append(restart, s)
		}
	}
	m.wal = &walStore{log: lg, st: st, every: m.cfg.SnapshotEvery}
	m.rec = sum
	// Attach the log only now: the restores above must not re-log the
	// records they were built from.
	for _, s := range m.sessions {
		s.wal = m.wal
	}
	// Restart interrupted cleans from their logged batches. The re-logged
	// clean-start record is idempotent under replay.
	for _, s := range restart {
		if err := s.Clean(); err == nil {
			sum.CleansRestarted++
		}
	}
	sum.WallMS = float64(time.Since(t0).Microseconds()) / 1000
	return nil
}

// restore rebuilds one session from its folded log state. An open or
// mid-clean session needs only its batches. A done one loads its engine once
// with the batches and every logged mutation folded into its latest table:
// that version is resident, every older one is rebuilt on read (Versioned),
// and version 1 keeps the logged wall time. Any error fails the restore.
func (m *Manager) restore(id string, snap *sessSnap) (*Session, error) {
	s, err := newSession(snap.RunID, snap.Req)
	if err != nil {
		return nil, err
	}
	s.ID = id
	s.created = time.Unix(0, snap.Created)
	s.batches = snap.Batches
	s.mutLog = snap.Mutations
	for _, b := range snap.Batches {
		s.tuples += len(b)
	}
	if snap.RolledBack {
		if s.rolled, _, err = foldTable(s.schema, snap.Batches, nil); err != nil {
			return nil, err
		}
	}
	if snap.Done != nil {
		latest, nextRow, err := s.loadEngine(s.delta, len(s.mutLog))
		if err != nil {
			return nil, err
		}
		s.state, s.wallMS, s.nextRow = StateDone, snap.Done.WallMS, nextRow
		s.versions = make([]*core.Version, 1+len(s.mutLog))
		s.versions[len(s.mutLog)] = latest
	}
	return s, nil
}

// newSession parses and validates a create request into an open, empty
// session, its ID left to the caller — shared by Create and WAL replay. The
// engine holds no data yet, but building it is what rejects a rule set,
// schema or fusion width the pipeline cannot run. An empty runID (a new
// session, or a log that predates run ids) is replaced by a fresh one.
func newSession(runID string, req CreateRequest) (*Session, error) {
	rs, err := rules.ParseList(strings.NewReader(req.Rules))
	if err != nil {
		return nil, err
	}
	schema, err := dataset.NewSchema(req.Attrs...)
	if err != nil {
		return nil, err
	}
	// The request's pipeline knobs that shape outcomes: τ, metric, duplicate
	// handling. Every version is core.Clean of its table under these.
	opts := core.Options{
		Tau:            req.Tau,
		Metric:         metricFor(req.Metric),
		KeepDuplicates: req.KeepDuplicates,
	}
	eng, err := core.NewDeltaCleaner(schema, rs, opts)
	if err != nil {
		return nil, err
	}
	if runID == "" {
		runID = obs.NewRunID()
	}
	now := time.Now()
	return &Session{
		runID:     runID,
		state:     StateOpen,
		rules:     rs,
		rulesHash: rules.CanonicalHash(rs),
		schema:    schema,
		created:   now,
		lastUsed:  now,
		delta:     eng,
		opts:      opts,
	}, nil
}

// Create opens a new session: checks the metric name, parses the rule set
// and validates it against the schema. Returns ErrBusy at the session cap.
// With durability on, the session is acknowledged only after its create
// record is on disk.
func (m *Manager) Create(req CreateRequest) (*Session, error) {
	if _, err := distance.ByName(req.Metric); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// Checked here and not in newSession, like the metric: a create logged
	// before the check still replays (as τ = 1, the default).
	if req.Tau < 0 {
		return nil, fmt.Errorf("%w: tau must be ≥ 0, got %d", ErrInvalid, req.Tau)
	}
	s, err := newSession("", req)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("server: manager shut down")
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, ErrBusy
	}
	m.seq++
	id := fmt.Sprintf("s-%06d", m.seq)
	// Reserve the slot, then fsync the create record outside the lock.
	m.sessions[id] = nil
	m.mu.Unlock()

	s.ID, s.wal = id, m.wal
	// Log the create before the session becomes reachable: an acknowledged
	// session id must survive a crash.
	if err := s.wal.append(recCreate{ID: id, Req: req, Created: s.created.UnixNano(), RunID: s.runID}); err != nil {
		m.mu.Lock()
		delete(m.sessions, id)
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrDurability, err)
	}
	m.mu.Lock()
	if _, reserved := m.sessions[id]; !reserved || m.closed {
		// The reservation was swept away by Shutdown while the create was
		// being logged. Tombstone it (best-effort) so the unacknowledged
		// session does not resurrect on replay.
		m.mu.Unlock()
		s.wal.append(recTombstone{ID: id})
		return nil, fmt.Errorf("server: manager shut down")
	}
	m.sessions[id] = s
	m.mu.Unlock()
	mSessionsCreated.Inc()
	slog.Info("server: session created", "session", id, "run", s.runID, "rules_hash", s.rulesHash)
	return s, nil
}

// Get looks a session up; ErrNotFound for unknown or evicted ids.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// Close tears a session down and frees its slot. Closing twice (or closing
// an evicted session) returns ErrNotFound; the teardown itself is
// idempotent. The tombstone is logged before the session disappears, so an
// acknowledged close can never resurrect on replay.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return ErrNotFound
	}
	if err := m.wal.append(recTombstone{ID: id}); err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	m.mu.Lock()
	s = m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if s == nil {
		// A concurrent Close won the race after both logged tombstones;
		// replayState.apply ignores the duplicate.
		return ErrNotFound
	}
	s.close()
	mSessionsClosed.Inc()
	slog.Debug("server: session closed", "session", id, "run", s.runID)
	return nil
}

// Len is the live session count.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// List snapshots every live session's status, for the stats endpoint.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			ss = append(ss, s)
		}
	}
	m.mu.Unlock()
	out := make([]SessionInfo, len(ss))
	for i, s := range ss {
		out[i] = s.Info()
	}
	return out
}

// EvictIdle closes every session idle past the timeout as of now, returning
// how many were evicted. Sessions mid-clean are exempt — their lastUsed is
// refreshed when the run completes. Each eviction logs its tombstone before
// the session is removed, so an evicted session cannot resurrect on replay.
func (m *Manager) EvictIdle(now time.Time) int {
	m.mu.Lock()
	var candidates []*Session
	for _, s := range m.sessions {
		if s == nil {
			continue
		}
		info := s.Info()
		if info.State == StateCleaning {
			continue
		}
		if now.Sub(info.LastUsedAt) > m.cfg.IdleTimeout {
			candidates = append(candidates, s)
		}
	}
	m.mu.Unlock()
	evicted := 0
	for _, s := range candidates {
		if err := m.wal.append(recTombstone{ID: s.ID}); err != nil {
			// Durability broke (fail-stop): keep the session rather than
			// evict one whose tombstone is not on disk.
			continue
		}
		m.mu.Lock()
		_, live := m.sessions[s.ID]
		delete(m.sessions, s.ID)
		m.mu.Unlock()
		if live {
			s.close()
			evicted++
			mSessionsEvicted.Inc()
			slog.Info("server: session evicted idle", "session", s.ID, "run", s.runID)
		}
	}
	return evicted
}

func (m *Manager) sweep() {
	defer close(m.sweepDone)
	tick := time.NewTicker(m.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case now := <-tick.C:
			m.EvictIdle(now)
		case <-m.stopSweep:
			return
		}
	}
}

// Shutdown stops the sweeper and closes every session. With durability on,
// the WAL is flushed, fsynced, and closed — no tombstones are written, so a
// restart on the same data directory resumes the sessions. Idempotent.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	victims := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			victims = append(victims, s)
		}
	}
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()
	close(m.stopSweep)
	<-m.sweepDone
	for _, s := range victims {
		s.close()
	}
	m.wal.close()
}

// metricFor resolves a create request's metric name. Create rejects an
// unknown name before logging it, but a create record logged before that
// check may carry one: it was acknowledged and cleaned under Levenshtein, so
// it replays that way.
func metricFor(name string) distance.Metric {
	if m, err := distance.ByName(name); err == nil {
		return m
	}
	return distance.Levenshtein{}
}
