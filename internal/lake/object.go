package lake

import (
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// Named auxiliary objects: lake storage for state that is not a weekly
// telemetry extract — ring snapshots from the stream layer, exported
// artifacts, and similar. Objects live under the same root as the extract
// partitions but are addressed by a caller-chosen slash-separated name
// instead of (dataset, region, week).

// ErrBadObjectName is returned for object names that would escape the lake
// root or collide with the temp-staging suffix.
var ErrBadObjectName = fmt.Errorf("lake: bad object name")

// objectTempSuffix marks in-progress object writes (each writer stages to
// its own unique "<name>.tmp<random>" file; Close renames the staged file
// over the final path). Readers never observe a half-written object, a
// crash mid-write leaves the previous version intact, and concurrent
// writers of the same object never share a staging file — they serialize on
// the final rename, last Close wins whole.
const objectTempSuffix = ".tmp"

// objectPath validates name and resolves it under the root. Names are
// slash-separated relative paths; absolute paths, empty names, parent
// references and the staging suffix are rejected.
func (s *Store) objectPath(name string) (string, error) {
	// isTempName also rejects the bare ".tmp" suffix, plus the suffixed forms
	// os.CreateTemp produces — a staging file must never be addressable as a
	// live object, or a crashed half-write could be read back as real data.
	if name == "" || strings.HasPrefix(name, "/") || isTempName(path.Base(name)) {
		return "", fmt.Errorf("%w: %q", ErrBadObjectName, name)
	}
	clean := filepath.Clean(filepath.FromSlash(name))
	if clean == "." || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("%w: %q", ErrBadObjectName, name)
	}
	return filepath.Join(s.root, clean), nil
}

// ObjectPath returns the file-system path an object name resolves to, or ""
// for an invalid name. Diagnostics only; use ObjectWriter/ObjectReader for
// access.
func (s *Store) ObjectPath(name string) string {
	p, err := s.objectPath(name)
	if err != nil {
		return ""
	}
	return p
}

// objectWriter stages writes to a temp file and renames it into place on
// Close, so the object is replaced atomically.
type objectWriter struct {
	f     *os.File
	final string
	sync  bool // fsync before the rename, so a crash cannot publish a torn file
	done  bool
}

// stage opens a staging file beside final.
func stage(final string, sync bool) (*objectWriter, error) {
	f, err := os.CreateTemp(filepath.Dir(final), filepath.Base(final)+objectTempSuffix+"*")
	if err != nil {
		return nil, fmt.Errorf("lake: stage object: %w", err)
	}
	return &objectWriter{f: f, final: final, sync: sync}, nil
}

func (w *objectWriter) Write(p []byte) (int, error) { return w.f.Write(p) }

func (w *objectWriter) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	if w.sync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			os.Remove(w.f.Name())
			return fmt.Errorf("lake: sync object: %w", err)
		}
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.f.Name())
		return fmt.Errorf("lake: close object: %w", err)
	}
	if err := os.Rename(w.f.Name(), w.final); err != nil {
		os.Remove(w.f.Name())
		return fmt.Errorf("lake: publish object: %w", err)
	}
	return nil
}

// Abort drops the staged write without publishing it. Safe after Close
// (no-op).
func (w *objectWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.f.Name())
}

// ObjectWriter opens a writer for the named object, creating parent
// directories as needed. The write is atomic: bytes are staged to a temp
// file and renamed over the final path on Close, so a crash mid-write
// leaves any previous version of the object intact and readers never see a
// torn object. The caller must Close it.
func (s *Store) ObjectWriter(name string) (io.WriteCloser, error) {
	p, err := s.objectPath(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, fmt.Errorf("lake: create object dir: %w", err)
	}
	return stage(p, true)
}

// ObjectReader opens the named object for reading; ErrNotFound when it does
// not exist. The caller must Close it.
func (s *Store) ObjectReader(name string) (io.ReadCloser, error) {
	p, err := s.objectPath(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: object %s", ErrNotFound, name)
		}
		return nil, fmt.Errorf("lake: open object: %w", err)
	}
	return f, nil
}

// RemoveObject deletes the named object; missing objects are not an error
// (removal is idempotent).
func (s *Store) RemoveObject(name string) error {
	p, err := s.objectPath(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("lake: remove object: %w", err)
	}
	return nil
}
