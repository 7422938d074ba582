package wal

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// MemFS is an in-memory FS with explicit crash semantics: bytes written to a
// file are volatile until Sync moves them to the durable image, exactly like
// a page cache in front of a disk. Crash discards (or, under an injected
// fault, tears and bit-flips) every file's volatile tail and invalidates all
// open handles, after which the surviving durable state can be reopened —
// the substrate the crash-recovery chaos suite drives the Log through.
//
// Faults are scripted by a seeded FaultPlan: deterministic trigger points,
// seeded randomness for the shape of the damage.
type MemFS struct {
	mu     sync.Mutex
	files  map[string]*memFile
	plan   FaultPlan
	rng    *rand.Rand
	writes int
	syncs  int
	gen    int  // handle generation; Crash bumps it, orphaning old handles
	dead   bool // between the fault firing and Crash: every op fails
}

type memFile struct {
	durable  []byte
	volatile []byte // written but not yet synced; lost or torn at Crash
}

// FaultMode selects the failure class a MemFS injects.
type FaultMode int

const (
	// FaultNone injects nothing; Crash still drops volatile tails.
	FaultNone FaultMode = iota
	// FaultShortWrite makes the AtWrite-th Write persist only a prefix of
	// its bytes — durably, as if some sectors hit the platter — and fail.
	FaultShortWrite
	// FaultSyncError makes the AtSync-th Sync fail, leaving the preceding
	// writes volatile (fsync returned an error; durability unknown).
	FaultSyncError
	// FaultTornTail makes the AtWrite-th Write "crash" the filesystem
	// mid-write; at Crash a random prefix of the volatile tail survives.
	FaultTornTail
	// FaultBitFlip is FaultTornTail plus one flipped bit inside the
	// surviving torn tail, so the frame is full-length but corrupt.
	FaultBitFlip
)

// String names the mode for test output.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultShortWrite:
		return "short-write"
	case FaultSyncError:
		return "fsync-error"
	case FaultTornTail:
		return "torn-tail"
	case FaultBitFlip:
		return "bit-flip"
	}
	return fmt.Sprintf("mode-%d", int(m))
}

// FaultPlan scripts a MemFS's failure. The trigger counters are 1-based and
// global across files; zero never fires. Damage shape (torn-tail length, the
// flipped bit) draws from a rand seeded with Seed, so a (plan, workload)
// pair replays the same corruption.
type FaultPlan struct {
	Seed    int64
	Mode    FaultMode
	AtWrite int // FaultShortWrite / FaultTornTail / FaultBitFlip trigger
	AtSync  int // FaultSyncError trigger
}

// NewMemFS returns an empty in-memory filesystem with the given fault plan.
func NewMemFS(plan FaultPlan) *MemFS {
	return &MemFS{
		files: make(map[string]*memFile),
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
	}
}

var errMemFSDead = fmt.Errorf("wal: memfs: filesystem crashed")

// Crash ends the current incarnation: volatile tails are dropped — or, for
// the torn modes, partially and corruptly persisted — and every open handle
// goes dead. The MemFS itself stays usable, modeling the machine rebooting
// over the surviving disk image; reopen the Log to recover.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		if len(f.volatile) == 0 {
			continue
		}
		switch m.plan.Mode {
		case FaultTornTail, FaultBitFlip:
			keep := m.rng.Intn(len(f.volatile) + 1)
			if m.plan.Mode == FaultBitFlip && keep == 0 {
				keep = 1 + m.rng.Intn(len(f.volatile))
			}
			torn := append([]byte(nil), f.volatile[:keep]...)
			if m.plan.Mode == FaultBitFlip && keep > 0 {
				// Flip one bit inside the torn region only: durable
				// (acknowledged) bytes are never damaged — fsync'd data is
				// the contract the log builds on.
				pos := m.rng.Intn(keep)
				torn[pos] ^= 1 << uint(m.rng.Intn(8))
			}
			f.durable = append(f.durable, torn...)
		}
		f.volatile = nil
	}
	m.gen++
	m.dead = false
}

// DurableLen reports the durable size of name (testing aid).
func (m *MemFS) DurableLen(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return 0
	}
	return int64(len(f.durable))
}

// CorruptDurable flips one bit of name's durable image at off (testing aid
// for bit-rot-in-place scenarios, distinct from the crash-consistency
// faults FaultPlan scripts).
func (m *MemFS) CorruptDurable(name string, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil || off < 0 || off >= int64(len(f.durable)) {
		return fmt.Errorf("wal: memfs: corrupt %s@%d: out of range", name, off)
	}
	f.durable[off] ^= 0x10
	return nil
}

type memHandle struct {
	fs   *MemFS
	name string
	gen  int
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, errMemFSDead
	}
	if m.files[name] == nil {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name, gen: m.gen}, nil
}

func (h *memHandle) file() (*memFile, error) {
	if h.fs.dead || h.gen != h.fs.gen {
		return nil, errMemFSDead
	}
	f := h.fs.files[h.name]
	if f == nil {
		return nil, fmt.Errorf("wal: memfs: %s removed", h.name)
	}
	return f, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	m.writes++
	if m.plan.AtWrite > 0 && m.writes == m.plan.AtWrite {
		switch m.plan.Mode {
		case FaultShortWrite:
			n := len(p) / 2
			f.durable = append(f.durable, p[:n]...)
			return n, fmt.Errorf("wal: memfs: injected short write (%d of %d bytes)", n, len(p))
		case FaultTornTail, FaultBitFlip:
			// The write reached the page cache, then the machine died: the
			// bytes are volatile and Crash decides how much survives, torn.
			f.volatile = append(f.volatile, p...)
			m.dead = true
			return 0, errMemFSDead
		}
	}
	f.volatile = append(f.volatile, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := h.file()
	if err != nil {
		return err
	}
	m.syncs++
	if m.plan.AtSync > 0 && m.syncs == m.plan.AtSync && m.plan.Mode == FaultSyncError {
		return fmt.Errorf("wal: memfs: injected fsync error")
	}
	f.durable = append(f.durable, f.volatile...)
	f.volatile = nil
	return nil
}

func (h *memHandle) Close() error { return nil }

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, errMemFSDead
	}
	f := m.files[name]
	if f == nil {
		return nil, fmt.Errorf("wal: memfs: %s: no such file", name)
	}
	// Reads see the full logical image (durable + page cache), like a real
	// filesystem; only a Crash exposes the difference.
	out := make([]byte, 0, len(f.durable)+len(f.volatile))
	out = append(out, f.durable...)
	return append(out, f.volatile...), nil
}

func (m *MemFS) WriteFile(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return errMemFSDead
	}
	// Atomic durable replace (tmp + sync + rename in one step here): the
	// write counter still ticks so fault triggers see snapshot writes too.
	m.writes++
	if m.plan.AtWrite > 0 && m.writes == m.plan.AtWrite &&
		(m.plan.Mode == FaultTornTail || m.plan.Mode == FaultBitFlip) {
		// Crash during the snapshot tmp-write: the rename never happened,
		// so the old file survives untouched.
		m.dead = true
		return errMemFSDead
	}
	m.files[name] = &memFile{durable: append([]byte(nil), data...)}
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return errMemFSDead
	}
	f := m.files[name]
	if f == nil {
		return fmt.Errorf("wal: memfs: %s: no such file", name)
	}
	whole := append(append([]byte(nil), f.durable...), f.volatile...)
	if size < 0 || size > int64(len(whole)) {
		return fmt.Errorf("wal: memfs: truncate %s to %d: out of range", name, size)
	}
	f.durable = whole[:size]
	f.volatile = nil
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return errMemFSDead
	}
	if m.files[name] == nil {
		return fmt.Errorf("wal: memfs: %s: no such file", name)
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, errMemFSDead
	}
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
