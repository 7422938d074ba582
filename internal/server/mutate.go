package server

import (
	"fmt"
	"log/slog"
	"time"

	"mlnclean/internal/core"
)

// Incremental serving: once a session is done, its result is no longer frozen
// — tuple PUT/DELETE mutations fold into a delta re-cleaning engine, which
// owns the current table, and every mutation mints a new result version.
// Version 1 is the batch run's result exactly as before; version N+1 is the
// cleaned table after the first N mutations, defined as the single-node
// pipeline over the mutated input (so it is transport-independent and, because
// the delta engine is parity-anchored to core.Clean, byte-identical to a
// from-scratch re-clean). Only the mutation log is durable; the engine, the
// dense-id high-water mark and the version cache are rebuilt deterministically
// on first use after a restart, so every acknowledged version re-serves
// byte-identically without ever being persisted itself.

// versionEntry is one materialized result version (version index i+2).
type versionEntry struct {
	res     *core.Result
	delta   core.DeltaStats
	repairs []Repair
	tuples  int // live rows in the mutated input table
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
	if s.state != StateDone {
		return 0, nil, fmt.Errorf("server: session %s is %s, cannot mutate tuples", s.ID, s.state)
	}
	if s.rolled != nil {
		return 0, nil, fmt.Errorf("server: session %s is rolled back, cannot mutate tuples", s.ID)
	}
	if err := s.ensureDeltaLocked(); err != nil {
		return 0, nil, err
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
		// validation above mirrors the engine's. Fail loudly rather than serve
		// a version log the replay cannot reproduce.
		return 0, nil, fmt.Errorf("server: session %s: apply acknowledged mutation: %w", s.ID, err)
	}
	s.lastUsed = time.Now()
	version := 1 + len(s.versions)
	entry := s.versions[len(s.versions)-1]
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

// Versioned returns result version v (v ≥ 2; version 1 is the batch result,
// served off the legacy path). ErrNotFound past the newest version.
func (s *Session) Versioned(v int) (*versionEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateDone {
		return nil, fmt.Errorf("server: session %s is %s, result not ready", s.ID, s.state)
	}
	if v < 2 || v > 1+len(s.mutLog) {
		return nil, fmt.Errorf("%w: session %s has no result version %d (latest %d)",
			ErrNotFound, s.ID, v, 1+len(s.mutLog))
	}
	if err := s.ensureDeltaLocked(); err != nil {
		return nil, err
	}
	s.lastUsed = time.Now()
	return s.versions[v-2], nil
}

// ensureDeltaLocked brings the incremental state current with the mutation
// log: on first use it seeds the delta engine with a full solo clean of the
// session's streamed input, then (every call) replays any logged-but-
// unmaterialized mutations. After a restart this is where acknowledged
// versions are recomputed — the engine is deterministic, so they come back
// byte-identical. Caller holds s.mu.
func (s *Session) ensureDeltaLocked() error {
	if s.delta == nil {
		base, err := preRepairTable(s.schema, s.batches)
		if err != nil {
			return err
		}
		eng, err := core.NewDeltaCleaner(s.schema, s.rules, s.coreOpts)
		if err != nil {
			return err
		}
		if _, err := eng.Load(base); err != nil {
			return fmt.Errorf("server: session %s: seed delta engine: %w", s.ID, err)
		}
		s.delta = eng
		s.nextRow = base.Len() // preRepairTable numbers rows 0..n-1
	}
	return s.catchUpLocked()
}

// catchUpLocked materializes one version per unapplied mutation-log record.
// Caller holds s.mu; the engine exists.
func (s *Session) catchUpLocked() error {
	for len(s.versions) < len(s.mutLog) {
		rec := s.mutLog[len(s.versions)]
		var mut core.Mutation
		switch rec.Op {
		case mutPut:
			mut = core.Mutation{Op: core.DeltaPut, Row: rec.Row, Values: rec.Values}
		case mutDelete:
			mut = core.Mutation{Op: core.DeltaDelete, Row: rec.Row}
		default:
			return fmt.Errorf("server: session %s: unknown logged mutation op %q", s.ID, rec.Op)
		}
		res, ds, err := s.delta.Apply([]core.Mutation{mut})
		if err != nil {
			return err
		}
		if rec.Op == mutPut && rec.Row >= s.nextRow {
			s.nextRow = rec.Row + 1
		}
		s.versions = append(s.versions, &versionEntry{
			res:     res,
			delta:   *ds,
			repairs: computeRepairsTable(s.schema, s.delta.Table(), res.Repaired, s.rules, s.delta.Weights()),
			tuples:  s.delta.Len(),
		})
	}
	return nil
}
