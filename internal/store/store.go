package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoCheckpoint reports a store directory holding no loadable
// checkpoint.
var ErrNoCheckpoint = errors.New("store: no checkpoint found")

// retainCheckpoints is how many checkpoint generations Save keeps on
// disk: the newest plus one known-good fallback, so a checkpoint that
// turns out unreadable (torn write discovered late, media corruption)
// never strands the service without state.
const retainCheckpoints = 2

const (
	filePrefix = "checkpoint-"
	fileSuffix = ".vdc"
)

// Store manages a directory of rotated checkpoint files. It is not safe
// for concurrent Save calls; the checkpoint scheduler serializes them.
type Store struct {
	dir string
	fs  FS
}

// Open prepares a checkpoint store rooted at dir on the real
// filesystem, creating the directory if needed.
func Open(dir string) (*Store, error) { return OpenFS(dir, OSFS) }

// OpenFS is Open over an injectable I/O layer — what the crash-point
// tests and the fault-injection harness (internal/faults) use to fail
// writes at exact byte offsets and prove LoadLatest always recovers the
// previous generation.
func OpenFS(dir string, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if fsys == nil {
		fsys = OSFS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// seqOf parses the sequence number out of a checkpoint file name, or
// returns false for files that are not checkpoints.
func seqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(filePrefix):len(name)-len(fileSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Paths returns the store's checkpoint files, newest (highest sequence)
// first.
func (s *Store) Paths() ([]string, error) {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type seqPath struct {
		seq  uint64
		path string
	}
	var found []seqPath
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		if seq, ok := seqOf(de.Name()); ok {
			found = append(found, seqPath{seq, filepath.Join(s.dir, de.Name())})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].seq > found[j].seq })
	paths := make([]string, len(found))
	for i, f := range found {
		paths[i] = f.path
	}
	return paths, nil
}

// nextSeq returns the sequence number the next Save should use.
func (s *Store) nextSeq() (uint64, error) {
	paths, err := s.Paths()
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 1, nil
	}
	seq, _ := seqOf(filepath.Base(paths[0]))
	return seq + 1, nil
}

// Save encodes the checkpoint and writes it atomically: the bytes go to
// a temp file in the same directory, are fsynced, and the file is then
// renamed into place — a crash at any point leaves either the complete
// new checkpoint or the untouched previous one, never a partial file
// under a checkpoint name. Older generations beyond the retention limit
// are pruned. It returns the final path.
func (s *Store) Save(cp *Checkpoint) (string, error) {
	data, err := Encode(cp)
	if err != nil {
		return "", err
	}
	seq, err := s.nextSeq()
	if err != nil {
		return "", err
	}
	final := filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", filePrefix, seq, fileSuffix))
	if err := s.writeAtomic(final, data); err != nil {
		return "", err
	}
	s.prune()
	return final, nil
}

// writeAtomic lands data at final via the temp+fsync+rename dance.
func (s *Store) writeAtomic(final string, data []byte) error {
	tmp, err := s.fs.CreateTemp(s.dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	defer s.fs.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmpName, err)
	}
	if err := s.fs.Rename(tmpName, final); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Persist the rename itself (best effort — not all platforms support
	// fsync on directories).
	_ = s.fs.SyncDir(s.dir)
	return nil
}

// prune removes checkpoint generations beyond the retention limit.
// Failures are ignored: stale files cost disk, not correctness.
func (s *Store) prune() {
	paths, err := s.Paths()
	if err != nil {
		return
	}
	for _, p := range paths[min(len(paths), retainCheckpoints):] {
		_ = s.fs.Remove(p)
	}
}

// LoadPath reads and decodes one checkpoint file.
func LoadPath(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	cp, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return cp, nil
}

// LoadLatest returns the newest checkpoint that decodes cleanly,
// falling back over damaged files (truncation, bit flips, wrong
// version) to the previous good generation. It returns ErrNoCheckpoint
// when the directory holds no checkpoint files at all, or an error
// joining the per-file failures when every file is damaged.
func (s *Store) LoadLatest() (*Checkpoint, string, error) {
	paths, err := s.Paths()
	if err != nil {
		return nil, "", err
	}
	if len(paths) == 0 {
		return nil, "", ErrNoCheckpoint
	}
	var failures []error
	for _, p := range paths {
		cp, err := s.loadPath(p)
		if err != nil {
			failures = append(failures, err)
			continue
		}
		return cp, p, nil
	}
	return nil, "", errors.Join(failures...)
}

// loadPath is LoadPath through the store's injected FS.
func (s *Store) loadPath(path string) (*Checkpoint, error) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	cp, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return cp, nil
}
