// Package ingest is the streaming tier on top of the immutable-snapshot
// index: an append-only, CRC-checksummed write-ahead log that acknowledges a
// review only once it is durable, a delta-build path that extracts tags at
// ingest time and folds per-batch mini-snapshots into the published
// index.Snapshot with bounded staleness, and compaction that checkpoints
// entity state and truncates the WAL past the durable watermark. The WAL
// and the checkpoint are the only durable artifacts: Open rebuilds the
// index from them, so a crash never loses an acknowledged review.
//
// Everything that touches disk goes through the FS seam below, so the
// crash-recovery test harness can substitute MemFS: an in-memory filesystem
// that tracks which bytes are durable (synced) versus merely buffered,
// simulates a machine crash by discarding the buffered suffix (optionally
// leaving a torn prefix of it), and injects write/sync/remove failures at an
// exact operation count.
package ingest

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem seam: the minimal surface the WAL and checkpoints
// need. OSFS is the real thing; MemFS is the fault-injecting
// test double.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	// ReadFile returns name's full contents.
	ReadFile(name string) ([]byte, error)
	// ReadDir returns the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically moves oldpath over newpath.
	Rename(oldpath, newpath string) error
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// SyncDir makes dir's entries durable. File Syncs persist content only:
	// a Create, Rename, or Remove survives a crash only once the parent
	// directory is synced, so every durability acknowledgment that depends
	// on a file existing (a fresh WAL segment, a renamed checkpoint) must
	// be fenced by SyncDir.
	SyncDir(dir string) error
}

// File is an open writable file. Write buffers; Sync makes everything
// written so far durable; Truncate discards the tail past size (used to back
// out a partially written record).
type File interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// OSFS is the production FS: thin delegation to the os package.
type OSFS struct{}

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OSFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Remove(name string) error             { return os.Remove(name) }
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// join builds a path inside dir; factored so both FS implementations agree
// on the key format.
func join(dir, name string) string { return filepath.Join(dir, name) }
