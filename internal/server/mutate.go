package server

import (
	"fmt"
	"log/slog"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
)

// Result versions. A session runs on one engine: the clean is
// DeltaCleaner.Load of the streamed tuples and mints version 1; once the
// session is done, tuple PUT/DELETE mutations are Apply, and each mints the
// next version. Version N+1 is the cleaned table after the first N
// mutations, and — the delta engine being parity-anchored to core.Clean —
// every version, 1 included, is byte-identical to a from-scratch clean of its
// input table: a pure function of (rules, options, tuples). No version is
// logged, only its inputs: the batches and the mutation log are durable, and
// a restart loads the engine from the batches and replays the mutations, so
// every acknowledged version — version 1 included — re-serves
// byte-identically. A done session in memory always holds a loaded engine
// current with its mutation log.

// versionEntry is one result version. The engine's Version shares every row
// chunk the mutation did not touch with the version before it, so a version
// costs what changed, not the table; a result body builds its rows and IDs
// from it per request, and a repairs page resolves only its own entries,
// under the session lock (resolution reads the engine's dictionary, which
// the next mutation appends to).
type versionEntry struct {
	ver *core.Version
	// delta is the Apply that minted the version; nil on version 1, which
	// carries the clean's wall time instead.
	delta  *core.DeltaStats
	wallMS int64
}

// rowsAndIDs is a table as the wire carries it: each tuple's values (shared,
// not copied) and its id.
func rowsAndIDs(tb *dataset.Table) ([][]string, []int) {
	rows, ids := make([][]string, tb.Len()), make([]int, tb.Len())
	for i, t := range tb.Tuples {
		rows[i], ids[i] = t.Values, t.ID
	}
	return rows, ids
}

// mutOps are the recMutation op names.
const (
	mutPut    = "put"
	mutDelete = "delete"
)

// Mutate applies one tuple mutation to a done session: validates it against
// the current table, logs it (the durability point), folds it into the delta
// engine, and returns the new version number and its entry.
//
// Error mapping: ErrInvalid for semantically bad input (arity, out-of-range
// row), ErrNotFound for deleting an absent row, ErrDurability when the WAL
// rejected the record, and plain errors for state conflicts (not done, rolled
// back, table would empty).
func (s *Session) Mutate(op string, row int, values []string) (int, *versionEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, ErrNotFound
	}
	if s.state != StateDone {
		return 0, nil, fmt.Errorf("server: session %s is %s, cannot mutate tuples", s.ID, s.state)
	}
	if s.rolled != nil {
		return 0, nil, fmt.Errorf("server: session %s is rolled back, cannot mutate tuples", s.ID)
	}
	switch op {
	case mutPut:
		if len(values) != s.schema.Len() {
			return 0, nil, fmt.Errorf("%w: row %d has %d values, schema has %d",
				ErrInvalid, row, len(values), s.schema.Len())
		}
		// Any live row may be replaced; the only insertable fresh id is the
		// next dense one, so row ids stay gapless-by-construction and a typo'd
		// id cannot silently grow the table. This is an API policy — the
		// engine itself accepts any non-negative row.
		if row < 0 || row > s.nextRow {
			return 0, nil, fmt.Errorf("%w: row %d out of range [0, %d]", ErrInvalid, row, s.nextRow)
		}
	case mutDelete:
		if !s.delta.Has(row) {
			return 0, nil, fmt.Errorf("%w: session %s has no row %d", ErrNotFound, s.ID, row)
		}
		if s.delta.Len() == 1 {
			return 0, nil, fmt.Errorf("server: session %s: deleting row %d would empty the table", s.ID, row)
		}
	default:
		return 0, nil, fmt.Errorf("%w: unknown mutation op %q", ErrInvalid, op)
	}

	rec := recMutation{ID: s.ID, Op: op, Row: row}
	if op == mutPut {
		rec.Values = append([]string(nil), values...)
	}
	if err := s.wal.append(rec); err != nil {
		return 0, nil, fmt.Errorf("%w: session %s: %v", ErrDurability, s.ID, err)
	}
	s.mutLog = append(s.mutLog, rec)
	if err := s.catchUpLocked(); err != nil {
		// The mutation is durable but the engine rejected it — a bug, since
		// validation above mirrors the engine's. The session fails rather
		// than serve a version log its engine is not current with; a restart
		// fails its restore the same way.
		s.state = StateFailed
		s.runErr = fmt.Errorf("server: session %s: apply acknowledged mutation: %w", s.ID, err)
		return 0, nil, s.runErr
	}
	s.lastUsed = time.Now()
	version := len(s.versions)
	entry := s.versions[version-1]
	mMutations.Inc()
	slog.Info("server: tuple mutation applied",
		"session", s.ID, "run", s.runID, "op", op, "row", row, "version", version,
		"dirty_blocks", entry.delta.DirtyBlocks, "reused_blocks", entry.delta.ReusedBlocks,
		"refused_tuples", entry.delta.RefusedTuples, "reused_tuples", entry.delta.ReusedTuples)
	return version, entry, nil
}

// LatestVersion is the newest result version the session serves (0 until
// done).
func (s *Session) LatestVersion() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateDone {
		return 0
	}
	return 1 + len(s.mutLog)
}

// Versioned returns result version v; ErrNotFound past the newest version,
// the run's error for a failed session.
func (s *Session) Versioned(v int) (*versionEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateDone:
	case StateFailed:
		return nil, s.runErr
	default:
		return nil, fmt.Errorf("server: session %s is %s, result not ready", s.ID, s.state)
	}
	if v < 1 || v > 1+len(s.mutLog) {
		return nil, fmt.Errorf("%w: session %s has no result version %d (latest %d)",
			ErrNotFound, s.ID, v, 1+len(s.mutLog))
	}
	s.lastUsed = time.Now()
	return s.versions[v-1], nil
}

// RepairPage resolves the entries [from, to) of a version's audit trail,
// clamped to it, under the session lock: resolution reads the engine's
// dictionary, which a concurrent mutation appends to.
func (s *Session) RepairPage(entry *versionEntry, from, to int) []Repair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return entry.ver.Repairs(from, to)
}

// catchUpLocked mints one version per unapplied mutation-log record:
// the one just acknowledged by Mutate, or the whole log on restore. Caller
// holds s.mu (or owns the unpublished session); the engine is loaded.
func (s *Session) catchUpLocked() error {
	for len(s.versions) <= len(s.mutLog) {
		rec := s.mutLog[len(s.versions)-1]
		var mut core.Mutation
		switch rec.Op {
		case mutPut:
			mut = core.Mutation{Op: core.DeltaPut, Row: rec.Row, Values: rec.Values}
		case mutDelete:
			mut = core.Mutation{Op: core.DeltaDelete, Row: rec.Row}
		default:
			return fmt.Errorf("server: session %s: unknown logged mutation op %q", s.ID, rec.Op)
		}
		ver, ds, err := s.delta.ApplyVersion([]core.Mutation{mut})
		if err != nil {
			return err
		}
		if rec.Op == mutPut && rec.Row >= s.nextRow {
			s.nextRow = rec.Row + 1
		}
		s.versions = append(s.versions, &versionEntry{ver: ver, delta: ds})
	}
	return nil
}
