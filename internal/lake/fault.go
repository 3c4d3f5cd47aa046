package lake

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Fault injection: a wrapping Store that fails object I/O at scriptable byte
// offsets. The crash-recovery matrix in internal/stream drives it to simulate
// torn WAL appends, short snapshot reads, CRC corruption and ENOSPC — the
// failure shapes a hard kill or a full disk actually produces — without
// reaching around the lake API. Test-support code, but it lives in the
// package (not a _test file) so other packages' tests can script faults too.

// ErrInjected is the default error an armed fault returns when it fires.
var ErrInjected = errors.New("lake: injected fault")

// FaultOp selects which kind of object I/O a rule arms.
type FaultOp uint8

const (
	// FaultAppend fires on writes through ObjectAppender (WAL appends).
	FaultAppend FaultOp = iota
	// FaultWrite fires on writes through ObjectWriter (staged replaces).
	FaultWrite
	// FaultRead fires on reads through ObjectReader.
	FaultRead
)

func (o FaultOp) String() string {
	switch o {
	case FaultAppend:
		return "append"
	case FaultWrite:
		return "write"
	default:
		return "read"
	}
}

// FaultRule injects one failure into the byte stream of one object.
type FaultRule struct {
	// Name is the exact object name the rule arms.
	Name string
	// Op is the I/O direction the rule fires on.
	Op FaultOp
	// Offset is the cumulative byte offset (per handle stream, counted from
	// the first byte transferred after arming) at which the fault fires.
	// Bytes before it transfer normally — so a write fault at offset k
	// produces a torn frame with exactly k good bytes, and a read fault at
	// offset k a short read.
	Offset int64
	// Err is returned when the fault fires; nil means ErrInjected. For reads,
	// io.EOF simulates a premature end of stream.
	Err error
	// Corrupt flips the byte at Offset instead of failing the call — the
	// bit-rot case CRCs exist for. Read rules only.
	Corrupt bool
}

func (r FaultRule) error() error {
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

// faultState tracks one armed rule's stream position.
type faultState struct {
	FaultRule
	pos   int64
	fired bool
}

// FaultStore wraps a Store, injecting armed faults into object I/O. It
// implements the same object surface the stream layer's durability manager
// consumes (stream.ObjectStore). A non-Corrupt rule stays latched after it
// fires: every later matching call keeps failing (a full disk does not drain
// itself) until Disarm or Reset clears it.
type FaultStore struct {
	store *Store

	mu    sync.Mutex
	rules []*faultState
}

// NewFaultStore wraps store with no faults armed.
func NewFaultStore(store *Store) *FaultStore {
	return &FaultStore{store: store}
}

// Arm registers a rule. Multiple rules may be armed at once.
func (f *FaultStore) Arm(r FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &faultState{FaultRule: r})
}

// Disarm removes every rule for the named object and op.
func (f *FaultStore) Disarm(name string, op FaultOp) {
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.rules[:0]
	for _, st := range f.rules {
		if st.Name != name || st.Op != op {
			kept = append(kept, st)
		}
	}
	f.rules = kept
}

// Reset removes every armed rule.
func (f *FaultStore) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// match returns the first armed rule for the named object and op.
func (f *FaultStore) match(name string, op FaultOp) *faultState {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, st := range f.rules {
		if st.Name == name && st.Op == op {
			return st
		}
	}
	return nil
}

// filterWrite applies a write-side rule to an outgoing chunk: it returns how
// many bytes of p should reach the underlying writer and the error to report
// after they do. Latched rules fail immediately.
func (f *FaultStore) filterWrite(st *faultState, p []byte) (int, error) {
	if st == nil {
		return len(p), nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if st.fired {
		return 0, st.error()
	}
	if st.pos+int64(len(p)) <= st.Offset {
		st.pos += int64(len(p))
		return len(p), nil
	}
	n := st.Offset - st.pos
	st.pos = st.Offset
	st.fired = true
	return int(n), st.error()
}

// --- wrapped object surface -------------------------------------------------

// ObjectPath passes through to the underlying store.
func (f *FaultStore) ObjectPath(name string) string { return f.store.ObjectPath(name) }

// ListObjects passes through to the underlying store.
func (f *FaultStore) ListObjects(prefix string) ([]string, error) {
	return f.store.ListObjects(prefix)
}

// SweepTempObjects passes through to the underlying store.
func (f *FaultStore) SweepTempObjects() (int, error) { return f.store.SweepTempObjects() }

// RemoveObject passes through to the underlying store.
func (f *FaultStore) RemoveObject(name string) error { return f.store.RemoveObject(name) }

// ObjectAppender wraps the underlying appender with any armed FaultAppend
// rule for name.
func (f *FaultStore) ObjectAppender(name string) (AppendObject, error) {
	a, err := f.store.ObjectAppender(name)
	if err != nil {
		return nil, err
	}
	return &faultAppend{AppendObject: a, f: f, name: name}, nil
}

type faultAppend struct {
	AppendObject
	f    *FaultStore
	name string
}

func (a *faultAppend) Write(p []byte) (int, error) {
	n, ferr := a.f.filterWrite(a.f.match(a.name, FaultAppend), p)
	wrote := 0
	if n > 0 {
		var err error
		wrote, err = a.AppendObject.Write(p[:n])
		if err != nil {
			return wrote, err
		}
	}
	if ferr != nil {
		return wrote, fmt.Errorf("lake: append %s: %w", a.name, ferr)
	}
	return wrote, nil
}

// ObjectWriter wraps the underlying staged writer with any armed FaultWrite
// rule for name. A fired rule aborts the stage on Close, so the previous
// object version survives — the same outcome as a crash mid-replace.
func (f *FaultStore) ObjectWriter(name string) (io.WriteCloser, error) {
	w, err := f.store.ObjectWriter(name)
	if err != nil {
		return nil, err
	}
	return &faultWrite{w: w, f: f, name: name}, nil
}

type faultWrite struct {
	w      io.WriteCloser
	f      *FaultStore
	name   string
	failed bool
}

func (w *faultWrite) Write(p []byte) (int, error) {
	n, ferr := w.f.filterWrite(w.f.match(w.name, FaultWrite), p)
	wrote := 0
	if n > 0 {
		var err error
		wrote, err = w.w.Write(p[:n])
		if err != nil {
			return wrote, err
		}
	}
	if ferr != nil {
		w.failed = true
		return wrote, fmt.Errorf("lake: write %s: %w", w.name, ferr)
	}
	return wrote, nil
}

func (w *faultWrite) Close() error {
	if w.failed {
		w.Abort()
		return fmt.Errorf("lake: publish %s: %w", w.name, ErrInjected)
	}
	return w.w.Close()
}

// Abort drops the staged write, mirroring the underlying writer.
func (w *faultWrite) Abort() {
	if ab, ok := w.w.(interface{ Abort() }); ok {
		ab.Abort()
	} else {
		w.w.Close()
	}
}

// ObjectReader wraps the underlying reader with any armed FaultRead rule for
// name.
func (f *FaultStore) ObjectReader(name string) (io.ReadCloser, error) {
	r, err := f.store.ObjectReader(name)
	if err != nil {
		return nil, err
	}
	return &faultRead{r: r, f: f, name: name}, nil
}

type faultRead struct {
	r    io.ReadCloser
	f    *FaultStore
	name string
}

func (r *faultRead) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	st := r.f.match(r.name, FaultRead)
	if st == nil {
		return n, err
	}
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	if st.fired && !st.Corrupt {
		return 0, st.error()
	}
	if st.Corrupt {
		if !st.fired && st.Offset >= st.pos && st.Offset < st.pos+int64(n) {
			p[st.Offset-st.pos] ^= 0xFF
			st.fired = true
		}
		st.pos += int64(n)
		return n, err
	}
	if st.pos+int64(n) > st.Offset {
		n = int(st.Offset - st.pos)
		st.pos = st.Offset
		st.fired = true
		return n, st.error()
	}
	st.pos += int64(n)
	return n, err
}

func (r *faultRead) Close() error { return r.r.Close() }
