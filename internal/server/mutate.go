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
// input table: a pure function of (rules, options, tuples), so of a prefix
// of the session's log. Only that log is durable — batches and mutations —
// and a restart folds it into the latest table and loads the engine with it
// once, leaving only the latest version resident. An older version read
// after a restart costs one full clean of its folded table, on an engine of
// its own, and is not kept. A done session in memory always holds a loaded
// engine current with its mutation log.
//
// An engine Version shares every row chunk its mutation did not touch with
// the version before it, so it costs what changed; a result body builds its
// rows and IDs from it per request, and a repairs page resolves only its own
// entries, under the session lock (resolution reads the engine's dictionary,
// which the next mutation appends to).

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
// engine, and returns the new version number, the version and the Apply's
// reuse accounting. A put's values are logged and kept as given, as the
// new tuple's values: the caller must not write them afterwards.
//
// Error mapping: ErrInvalid for semantically bad input (arity, out-of-range
// row), ErrNotFound for deleting an absent row, ErrDurability when the WAL
// rejected the record, and plain errors for state conflicts (not done, rolled
// back, table would empty).
func (s *Session) Mutate(op string, row int, values []string) (int, *core.Version, *core.DeltaStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, nil, ErrNotFound
	}
	if s.state != StateDone {
		return 0, nil, nil, fmt.Errorf("server: session %s is %s, cannot mutate tuples", s.ID, s.state)
	}
	if s.rolled != nil {
		return 0, nil, nil, fmt.Errorf("server: session %s is rolled back, cannot mutate tuples", s.ID)
	}
	switch op {
	case mutPut:
		if len(values) != s.schema.Len() {
			return 0, nil, nil, fmt.Errorf("%w: row %d has %d values, schema has %d",
				ErrInvalid, row, len(values), s.schema.Len())
		}
		// Any live row may be replaced; the only insertable fresh id is the
		// next dense one, so row ids stay gapless-by-construction and a typo'd
		// id cannot silently grow the table. This is an API policy — the
		// engine itself accepts any non-negative row.
		if row < 0 || row > s.nextRow {
			return 0, nil, nil, fmt.Errorf("%w: row %d out of range [0, %d]", ErrInvalid, row, s.nextRow)
		}
	case mutDelete:
		if !s.delta.Has(row) {
			return 0, nil, nil, fmt.Errorf("%w: session %s has no row %d", ErrNotFound, s.ID, row)
		}
		if s.delta.Len() == 1 {
			return 0, nil, nil, fmt.Errorf("server: session %s: deleting row %d would empty the table", s.ID, row)
		}
	default:
		return 0, nil, nil, fmt.Errorf("%w: unknown mutation op %q", ErrInvalid, op)
	}

	rec := recMutation{ID: s.ID, Op: op, Row: row}
	mut := core.Mutation{Op: core.DeltaDelete, Row: row}
	if op == mutPut {
		rec.Values = values
		mut = core.Mutation{Op: core.DeltaPut, Row: row, Values: values}
	}
	if err := s.wal.append(rec); err != nil {
		return 0, nil, nil, fmt.Errorf("%w: session %s: %v", ErrDurability, s.ID, err)
	}
	s.mutLog = append(s.mutLog, rec)
	ver, ds, err := s.delta.ApplyVersion([]core.Mutation{mut})
	if err != nil {
		// The mutation is durable but the engine rejected it — a bug, since
		// validation above mirrors the engine's. The session fails rather
		// than serve a version log its engine is not current with; a restart
		// fails its restore the same way.
		s.state = StateFailed
		s.runErr = fmt.Errorf("server: session %s: apply acknowledged mutation: %w", s.ID, err)
		return 0, nil, nil, s.runErr
	}
	s.versions = append(s.versions, ver)
	s.nextRow = max(s.nextRow, row+1)
	s.lastUsed = time.Now()
	slog.Info("server: tuple mutation applied",
		"session", s.ID, "run", s.runID, "op", op, "row", row, "version", len(s.versions),
		"dirty_blocks", ds.DirtyBlocks, "reused_blocks", ds.ReusedBlocks,
		"refused_tuples", ds.RefusedTuples, "reused_tuples", ds.ReusedTuples)
	return len(s.versions), ver, ds, nil
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

// Versioned returns result version v and, for version 1, the clean's wall
// time; ErrNotFound past the newest version, the run's error for a failed
// session. A version not resident since a restart is rebuilt by one full
// clean of its folded table on a fresh engine, and not kept.
func (s *Session) Versioned(v int) (*core.Version, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateDone:
	case StateFailed:
		return nil, 0, s.runErr
	default:
		return nil, 0, fmt.Errorf("server: session %s is %s, result not ready", s.ID, s.state)
	}
	if v < 1 || v > len(s.versions) {
		return nil, 0, fmt.Errorf("%w: session %s has no result version %d (latest %d)",
			ErrNotFound, s.ID, v, len(s.versions))
	}
	s.lastUsed = time.Now()
	var wallMS int64
	if v == 1 {
		wallMS = s.wallMS
	}
	if ver := s.versions[v-1]; ver != nil {
		return ver, wallMS, nil
	}
	eng, err := core.NewDeltaCleaner(s.schema, s.rules, s.opts)
	if err != nil {
		return nil, 0, err
	}
	ver, _, err := s.loadEngine(eng, v-1)
	return ver, wallMS, err
}

// RepairPage resolves the entries [from, to) of a version's audit trail,
// clamped to it, under the session lock: resolution reads the engine's
// dictionary, which a concurrent mutation appends to.
func (s *Session) RepairPage(ver *core.Version, from, to int) []Repair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ver.Repairs(from, to)
}

// loadEngine loads eng with the session's table after its first n logged
// mutations — one full clean, rows numbered by stream position — and returns
// the version it mints and the table's dense-ID high-water mark. The caller
// holds s.mu, is the session's clean, or is the restore of a session not yet
// published.
func (s *Session) loadEngine(eng *core.DeltaCleaner, n int) (*core.Version, int, error) {
	tb, nextRow, err := foldTable(s.schema, s.batches, s.mutLog[:n])
	if err != nil {
		return nil, 0, err
	}
	ver, err := eng.LoadVersion(tb)
	return ver, nextRow, err
}
