package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: on SIGQUIT, reload rollback, or a fast-burn SLO
// alert, dump the tail-retained journeys, a metrics snapshot, SLO state,
// and goroutine/heap profiles into one timestamped tar.gz under the
// flight directory. Dumps are written to a temp file
// and renamed into place, so a crash mid-dump never leaves a partial
// tarball with the final name. A debounce window stops a flapping
// trigger from filling the disk; Force (the SIGQUIT path) bypasses it.

// ErrFlightThrottled reports a dump suppressed by the debounce window.
var ErrFlightThrottled = errors.New("flight recorder: dump throttled")

// ErrFlightDisabled reports a dump requested with no recorder configured
// (no -flight-dir).
var ErrFlightDisabled = errors.New("flight recorder: disabled")

// FlightConfig tunes the recorder.
type FlightConfig struct {
	// Dir is the dump directory (created on first dump). Empty disables
	// the recorder (NewFlightRecorder returns nil).
	Dir string
	// MinInterval debounces automatic dumps (default 30s).
	MinInterval time.Duration
}

// FlightSource is one named file inside a dump tarball.
type FlightSource struct {
	Name  string
	Write func(io.Writer) error
}

// FlightRecorder writes crash/degradation dump tarballs.
type FlightRecorder struct {
	cfg FlightConfig

	mu       sync.Mutex
	last     time.Time
	dumps    atomic.Int64
	lastPath atomic.Pointer[string]
}

// NewFlightRecorder builds a recorder, or returns nil (disabled) when
// cfg.Dir is empty. All methods are nil-safe.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Dir == "" {
		return nil
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 30 * time.Second
	}
	return &FlightRecorder{cfg: cfg}
}

// Enabled reports whether the recorder writes dumps.
func (f *FlightRecorder) Enabled() bool { return f != nil }

// Dumps reports the number of tarballs written.
func (f *FlightRecorder) Dumps() int64 {
	if f == nil {
		return 0
	}
	return f.dumps.Load()
}

// LastPath reports the most recent tarball path ("" before any dump).
func (f *FlightRecorder) LastPath() string {
	if f == nil {
		return ""
	}
	if p := f.lastPath.Load(); p != nil {
		return *p
	}
	return ""
}

// Dump writes one debounced dump (automatic triggers: reload rollback,
// fast burn). Returns ErrFlightThrottled inside the debounce
// window.
func (f *FlightRecorder) Dump(reason string, srcs []FlightSource) (string, error) {
	return f.dump(reason, srcs, false)
}

// Force writes one dump bypassing the debounce (the SIGQUIT path).
func (f *FlightRecorder) Force(reason string, srcs []FlightSource) (string, error) {
	return f.dump(reason, srcs, true)
}

func (f *FlightRecorder) dump(reason string, srcs []FlightSource, force bool) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	if !force && !f.last.IsZero() && now.Sub(f.last) < f.cfg.MinInterval {
		return "", ErrFlightThrottled
	}
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("flight-%s-%s.tar.gz",
		now.UTC().Format("20060102T150405.000"), sanitizeReason(reason))
	final := filepath.Join(f.cfg.Dir, name)
	tmp, err := os.CreateTemp(f.cfg.Dir, ".flight-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())

	gz := gzip.NewWriter(tmp)
	tw := tar.NewWriter(gz)
	var firstErr error
	for _, src := range append(srcs, profileSources()...) {
		var buf bytes.Buffer
		name := src.Name
		if err := src.Write(&buf); err != nil {
			// One failing source must not lose the rest of a crash dump:
			// the error text lands in the tarball in the file's place.
			buf.Reset()
			fmt.Fprintf(&buf, "flight source %s: %v\n", src.Name, err)
			name += ".error.txt"
		}
		hdr := &tar.Header{
			Name:    name,
			Mode:    0o644,
			Size:    int64(buf.Len()),
			ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			firstErr = err
			break
		}
		if _, err := tw.Write(buf.Bytes()); err != nil {
			firstErr = err
			break
		}
	}
	if err := tw.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := gz.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := tmp.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := tmp.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return "", firstErr
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", err
	}
	f.last = now
	f.dumps.Add(1)
	f.lastPath.Store(&final)
	return final, nil
}

// profileSources are the runtime profiles every dump carries.
func profileSources() []FlightSource {
	return []FlightSource{
		{Name: "goroutines.txt", Write: func(w io.Writer) error {
			return pprof.Lookup("goroutine").WriteTo(w, 2)
		}},
		{Name: "heap.pprof", Write: func(w io.Writer) error {
			return pprof.Lookup("heap").WriteTo(w, 0)
		}},
	}
}

func sanitizeReason(r string) string {
	if r == "" {
		return "manual"
	}
	var b strings.Builder
	for _, c := range r {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteRune('-')
		}
	}
	return b.String()
}
