package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is an open, append-only log file handle.
type File interface {
	io.Writer
	// Sync forces everything written so far to stable storage. A record is
	// durable — and may be acknowledged — only after the Sync covering it
	// returns nil.
	Sync() error
	Close() error
}

// FS abstracts the flat directory a Log lives in, so tests can substitute a
// crash-simulating, fault-injecting filesystem (MemFS) for the real one
// (DirFS). Names are bare file names; the FS owns the directory.
type FS interface {
	// OpenAppend opens name for appending, creating it when absent.
	OpenAppend(name string) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// WriteFile atomically replaces name with data, durably (write to a
	// temporary file, sync, rename). Used for snapshots.
	WriteFile(name string, data []byte) error
	// Truncate shortens name to size bytes — how recovery discards a torn
	// or corrupt tail so later appends land after the last valid frame.
	Truncate(name string, size int64) error
	Remove(name string) error
	// List returns the file names in the directory, sorted.
	List() ([]string, error)
}

// dirFS is the production FS: a real directory.
type dirFS struct {
	dir string
}

// DirFS returns an FS rooted at dir, creating the directory if needed.
func DirFS(dir string) (FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	return &dirFS{dir: dir}, nil
}

type osFile struct{ *os.File }

func (fs *dirFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(fs.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (fs *dirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(fs.dir, name))
}

func (fs *dirFS) WriteFile(name string, data []byte) error {
	tmp := filepath.Join(fs.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(fs.dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return fs.syncDir()
}

// syncDir fsyncs the directory so renames and removals are durable too;
// best-effort on filesystems that reject directory fsync.
func (fs *dirFS) syncDir() error {
	d, err := os.Open(fs.dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

func (fs *dirFS) Truncate(name string, size int64) error {
	return os.Truncate(filepath.Join(fs.dir, name), size)
}

func (fs *dirFS) Remove(name string) error {
	err := os.Remove(filepath.Join(fs.dir, name))
	fs.syncDir()
	return err
}

func (fs *dirFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
