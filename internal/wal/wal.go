// Package wal is the durable storage layer under mlnserve: an append-only,
// checksummed, length-prefixed segment log with periodic snapshot/compaction.
// Callers append opaque payloads (the serving layer gob-encodes its
// records) and replay them after a restart; the log guarantees that everything acknowledged
// before a crash is replayed byte-identically, and that a torn, short, or
// bit-flipped tail — the crash left mid-write — truncates cleanly at the
// first corrupt frame instead of panicking or feeding garbage downstream.
//
// On-disk layout (one flat directory, abstracted by FS):
//
//	wal-00000001.log   segment: a sequence of frames
//	wal-00000003.snap  snapshot: one frame holding the state covering
//	                   every segment with sequence ≤ 3
//
// A log appends to one segment until Compact starts the next, so a live
// directory holds one segment past its snapshot; replay still reads any run
// of consecutive segments.
//
// A frame is [uint32 length | uint32 CRC32(payload) | payload], both fields
// little-endian. Replay loads the newest decodable snapshot, then the
// segments after it in sequence order; the first partial, corrupt, or
// invalid frame truncates the log there (the file is physically shortened so
// later appends land after the last valid frame) and everything beyond it is
// dropped. Appends are fsynced before they return, so an acknowledged record
// survives any crash the filesystem survives.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	frameHeader = 8
	// MaxRecord bounds a frame payload; a corrupt length field larger than
	// this reads as corruption, not an allocation request.
	MaxRecord = 256 << 20
)

// Frame-decode error classes. Both mean "stop replay and truncate here";
// they are distinguished so tests and recovery summaries can tell a torn
// tail (partial) from bit rot (corrupt).
var (
	ErrPartialFrame = fmt.Errorf("wal: partial frame")
	ErrCorruptFrame = fmt.Errorf("wal: corrupt frame")
)

// AppendFrame appends the frame encoding of payload to buf and returns the
// extended slice.
func AppendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// DecodeRecord decodes the first frame in b, returning its payload and the
// total frame size consumed. A truncated buffer returns ErrPartialFrame; a
// length out of range or a checksum mismatch returns ErrCorruptFrame. The
// returned payload aliases b.
func DecodeRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) < frameHeader {
		return nil, 0, ErrPartialFrame
	}
	size := binary.LittleEndian.Uint32(b[0:4])
	if size > MaxRecord {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorruptFrame, size)
	}
	if uint64(len(b)-frameHeader) < uint64(size) {
		return nil, 0, ErrPartialFrame
	}
	payload = b[frameHeader : frameHeader+int(size)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return payload, frameHeader + int(size), nil
}

// Options tune a Log.
type Options struct {
	// Validate, when non-nil, vets every replayed record payload; a payload
	// it rejects truncates the log at that frame, exactly like a checksum
	// mismatch. Callers pass their record decoder so a frame that is
	// intact on disk but undecodable upstream still cuts the log cleanly.
	Validate func(payload []byte) error
}

// Recovery reports what Open found and salvaged.
type Recovery struct {
	// Snapshot is the newest decodable snapshot payload, nil when none.
	Snapshot []byte
	// Records are the valid record payloads appended after the snapshot,
	// in append order.
	Records [][]byte
	// Segments is the number of segment files scanned.
	Segments int
	// TruncatedBytes counts the bytes dropped at and beyond the first
	// partial/corrupt/invalid frame (including any orphaned later
	// segments). Zero means the log was clean.
	TruncatedBytes int64
}

// Truncated reports whether recovery had to cut a corrupt tail.
func (r *Recovery) Truncated() bool { return r.TruncatedBytes > 0 }

// Log is an open write-ahead log positioned for appending. Methods are safe
// for concurrent use. Any write or sync failure latches the log broken
// (fail-stop): every later Append returns the original error, and the
// surviving prefix is exactly what recovery replays — the log never writes
// after a failure it cannot reason about.
type Log struct {
	fs FS

	mu     sync.Mutex
	f      File
	seq    int // active segment sequence number
	buf    []byte
	broken error
	closed bool
}

func segName(seq int) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq int) string { return fmt.Sprintf("wal-%08d.snap", seq) }

// parseName extracts the sequence of a segment or snapshot file name.
func parseName(name string) (seq int, snap, ok bool) {
	var suffix string
	switch {
	case strings.HasSuffix(name, ".log"):
		suffix = ".log"
	case strings.HasSuffix(name, ".snap"):
		suffix = ".snap"
		snap = true
	default:
		return 0, false, false
	}
	if !strings.HasPrefix(name, "wal-") {
		return 0, false, false
	}
	if _, err := fmt.Sscanf(strings.TrimSuffix(name, suffix), "wal-%d", &seq); err != nil || seq <= 0 {
		return 0, false, false
	}
	return seq, snap, true
}

// Open scans the directory, recovers the surviving state, and returns the
// log positioned to append after the last valid frame. Recovery is returned
// even when the tail had to be truncated; only unusable directories (I/O
// errors on intact files) fail.
func Open(fs FS, o Options) (*Log, *Recovery, error) {
	names, err := fs.List()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list: %w", err)
	}
	var segs, snaps []int
	for _, name := range names {
		seq, snap, ok := parseName(name)
		if !ok {
			continue
		}
		if snap {
			snaps = append(snaps, seq)
		} else {
			segs = append(segs, seq)
		}
	}
	sort.Ints(segs)
	sort.Sort(sort.Reverse(sort.IntSlice(snaps)))

	rec := &Recovery{}
	snapSeq := 0
	for _, sq := range snaps {
		data, err := fs.ReadFile(snapName(sq))
		if err != nil {
			continue
		}
		payload, n, err := DecodeRecord(data)
		if err != nil || n != len(data) {
			// A half-written or corrupt snapshot: ignore it and fall back
			// to the previous one (compaction replaces atomically, so at
			// most the newest can be damaged).
			fs.Remove(snapName(sq))
			continue
		}
		rec.Snapshot = append([]byte(nil), payload...)
		snapSeq = sq
		break
	}

	// Replay segments after the snapshot, in order, stopping — and cutting —
	// at the first gap or bad frame.
	lastSeq := snapSeq
	truncated := false
	for _, sq := range segs {
		if sq <= snapSeq {
			// Covered by the snapshot; left over from a compaction that
			// crashed before removing it.
			fs.Remove(segName(sq))
			continue
		}
		if truncated || sq != lastSeq+1 {
			// Beyond a truncation point or a sequence gap: whatever is
			// here is not reachable from the valid prefix.
			if data, err := fs.ReadFile(segName(sq)); err == nil {
				rec.TruncatedBytes += int64(len(data))
			}
			fs.Remove(segName(sq))
			truncated = true
			continue
		}
		data, err := fs.ReadFile(segName(sq))
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read %s: %w", segName(sq), err)
		}
		rec.Segments++
		off := 0
		for off < len(data) {
			payload, n, err := DecodeRecord(data[off:])
			if err == nil && o.Validate != nil {
				if verr := o.Validate(payload); verr != nil {
					err = fmt.Errorf("%w: %v", ErrCorruptFrame, verr)
				}
			}
			if err != nil {
				rec.TruncatedBytes += int64(len(data) - off)
				if terr := fs.Truncate(segName(sq), int64(off)); terr != nil {
					return nil, nil, fmt.Errorf("wal: truncate %s after %v: %w", segName(sq), err, terr)
				}
				truncated = true
				break
			}
			rec.Records = append(rec.Records, append([]byte(nil), payload...))
			off += n
		}
		lastSeq = sq
	}

	mOpens.Inc()
	mRecoveryRecords.Add(int64(len(rec.Records)))
	mRecoveryTruncated.Add(rec.TruncatedBytes)
	if rec.Truncated() {
		slog.Warn("wal: truncated corrupt tail during recovery",
			"truncated_bytes", rec.TruncatedBytes,
			"replayed_records", len(rec.Records),
			"segments", rec.Segments)
	}
	l := &Log{fs: fs, seq: lastSeq}
	if l.seq <= snapSeq {
		// A crash between snapshot write and the first post-compaction
		// append leaves no segment newer than the snapshot; appending into
		// a covered sequence would be invisible to the next replay.
		l.seq = snapSeq + 1
	}
	if l.seq == 0 {
		l.seq = 1
	}
	if l.f, err = fs.OpenAppend(segName(l.seq)); err != nil {
		return nil, nil, fmt.Errorf("wal: open segment: %w", err)
	}
	return l, rec, nil
}

// Append durably adds one record. The record is on stable storage when
// Append returns nil; on error the log is broken and the record must be
// considered unacknowledged.
func (l *Log) Append(payload []byte) error {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	l.buf = AppendFrame(l.buf[:0], payload)
	if n, err := l.f.Write(l.buf); err != nil {
		l.broken = fmt.Errorf("wal: append (wrote %d of %d bytes): %w", n, len(l.buf), err)
		return l.broken
	}
	ts := time.Now()
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: fsync: %w", err)
		return l.broken
	}
	mFsyncSeconds.ObserveSince(ts)
	mAppends.Inc()
	mAppendBytes.Add(int64(len(l.buf)))
	mAppendSeconds.ObserveSince(t0)
	return nil
}

// rotateLocked closes the active segment (synced) and opens seq fresh.
func (l *Log) rotateLocked(seq int) error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync on rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	f, err := l.fs.OpenAppend(segName(seq))
	if err != nil {
		return fmt.Errorf("wal: open segment %d: %w", seq, err)
	}
	l.f, l.seq = f, seq
	return nil
}

// Compact writes state as a snapshot covering everything appended so far,
// rotates to a fresh segment, and removes the superseded segments and older
// snapshots. After a crash at any point the log recovers either the old
// snapshot + segments or the new snapshot — never a mix.
func (l *Log) Compact(state []byte) error {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	cover := l.seq
	if err := l.fs.WriteFile(snapName(cover), AppendFrame(nil, state)); err != nil {
		// The old snapshot and segments are untouched; the log keeps
		// appending and a later compaction can retry.
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := l.rotateLocked(cover + 1); err != nil {
		l.broken = err
		return err
	}
	// Best-effort cleanup: anything covered that survives a crash here is
	// removed by the next Open.
	if names, err := l.fs.List(); err == nil {
		for _, name := range names {
			seq, snap, ok := parseName(name)
			if !ok {
				continue
			}
			if (snap && seq < cover) || (!snap && seq <= cover) {
				l.fs.Remove(name)
			}
		}
	}
	mCompactions.Inc()
	mCompactSeconds.ObserveSince(t0)
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if l.closed {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: fsync: %w", err)
		return l.broken
	}
	return nil
}

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.broken == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
