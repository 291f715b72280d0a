package refstore

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/bwamem"
	"seedex/internal/fmindex"
)

// Generation lifecycle. The store serves exactly one generation at a
// time through an atomic pointer; workers acquire refcounted handles,
// so a hot reload publishes the new generation instantly while
// in-flight requests drain on the old one, and the old mapping is
// released only when the last handle drops. A reload that fails — the
// file is corrupt, truncated, the wrong version, or gone — retries with
// backoff and then rolls back: the serving generation is untouched and
// the store reports a degraded-reload state until a reload succeeds.

// Options configures a Store.
type Options struct {
	// NoMmap forces the copy-load path (mmap is the default on
	// platforms that support it).
	NoMmap bool
	// NoWarmup skips the page-touch pass after mapping.
	NoWarmup bool
	// MaxAttempts is the number of load attempts per reload trigger
	// before rolling back (default 3).
	MaxAttempts int
	// RetryBackoff is the sleep before the second attempt, doubling per
	// retry (default 25ms).
	RetryBackoff time.Duration
	// Logf receives one line per lifecycle event (nil = silent).
	Logf func(format string, args ...any)
}

// Generation is one immutable loaded index: the reference, the FM
// index over it, and (on the mmap path) the mapping both alias.
type Generation struct {
	id    uint64
	ref   *bwamem.Reference
	index *fmindex.Index
	info  Info

	mapped []byte // nil on the copy-load path
	load   time.Duration
	warmup time.Duration

	refs     atomic.Int64 // the store's own hold counts as 1
	retired  atomic.Bool
	unmapped sync.Once
}

// ID returns the generation number (1 for the initial open).
func (g *Generation) ID() uint64 { return g.id }

// Ref returns the contig table. Shared and immutable.
func (g *Generation) Ref() *bwamem.Reference { return g.ref }

// Index returns the FM index. Shared and immutable; valid until the
// handle that produced it is released.
func (g *Generation) Index() *fmindex.Index { return g.index }

// Info returns the validated container metadata.
func (g *Generation) Info() Info { return g.info }

// MappedBytes returns the size of the mmap backing this generation
// (0 on the copy-load path).
func (g *Generation) MappedBytes() int64 { return int64(len(g.mapped)) }

// LoadDuration is the validate-and-assemble time for this generation.
func (g *Generation) LoadDuration() time.Duration { return g.load }

// WarmupDuration is the page-touch pass time (0 when skipped).
func (g *Generation) WarmupDuration() time.Duration { return g.warmup }

// Release drops one reference. When the generation has been retired
// and the last reference drops, the mapping is unmapped — after this
// call the Index and Ref must not be touched.
func (g *Generation) Release() {
	if g == nil {
		return
	}
	// A retired generation's count can touch zero more than once: Acquire
	// increments before it checks that the generation is still current,
	// and backs out through here. The mapping goes exactly once.
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		g.unmapped.Do(g.unmap)
	}
}

func (g *Generation) unmap() {
	if g.mapped != nil {
		munmapFile(g.mapped)
		g.mapped = nil
	}
}

// warmupSink defeats dead-code elimination of the page-touch pass.
var warmupSink atomic.Uint64

// touchPages walks the mapping one page at a time so the index is
// resident before the first request pays the fault.
func touchPages(b []byte) {
	const page = 4096
	var sum uint64
	for i := 0; i < len(b); i += page {
		sum += uint64(b[i])
	}
	if n := len(b); n > 0 {
		sum += uint64(b[n-1])
	}
	warmupSink.Add(sum)
}

// Store owns the generation lifecycle for one index file path.
type Store struct {
	path string
	opts Options

	reloadMu sync.Mutex // serializes reload triggers, not reads
	cur      atomic.Pointer[Generation]
	nextID   atomic.Uint64

	reloads   atomic.Int64 // successful reloads (excludes initial open)
	failures  atomic.Int64 // failed load attempts
	rollbacks atomic.Int64 // reload triggers that exhausted retries
	degraded  atomic.Bool  // last reload trigger rolled back
	reloading atomic.Bool  // a Reload trigger is in flight right now

	lastErrMu sync.Mutex
	lastErr   string

	closed atomic.Bool
}

// Status is a point-in-time snapshot of the store for /healthz,
// metrics, and operator tooling.
type Status struct {
	Path            string  `json:"path"`
	Generation      uint64  `json:"generation"`
	FileBytes       int64   `json:"file_bytes"`
	MappedBytes     int64   `json:"mapped_bytes"`
	Contigs         int     `json:"contigs"`
	LoadMs          float64 `json:"load_ms"`
	WarmupMs        float64 `json:"warmup_ms"`
	Reloads         int64   `json:"reloads"`
	ReloadFailures  int64   `json:"reload_failures"`
	Rollbacks       int64   `json:"rollbacks"`
	DegradedReload  bool    `json:"degraded_reload"`
	LastReloadError string  `json:"last_reload_error,omitempty"`
}

// Open loads the container at path and returns a serving Store. The
// initial open does not retry: a bad file at startup is an operator
// error, not a transient.
//
// Publication contract: the file at path must only ever be replaced by
// rename (WriteFile does this), never rewritten in place — a live
// MAP_SHARED generation aliases the inode it opened, and an in-place
// rewrite would mutate the memory every in-flight request is reading.
func Open(path string, opts Options) (*Store, error) {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 25 * time.Millisecond
	}
	s := &Store{path: path, opts: opts}
	gen, err := s.loadFile(path)
	if err != nil {
		return nil, err
	}
	gen.refs.Store(1) // the store's hold
	s.cur.Store(gen)
	s.logf("refstore: generation %d serving from %s (%d contigs, %s, load %s, warmup %s)",
		gen.id, path, gen.info.Contigs, sizeOf(gen.info.FileBytes), gen.load.Round(time.Millisecond), gen.warmup.Round(time.Millisecond))
	return s, nil
}

// Reloading reports whether a Reload trigger is in flight right now,
// so serving-tier workers can flag requests that overlap a reload.
func (s *Store) Reloading() bool { return s.reloading.Load() }

// Acquire returns a refcounted handle on the current generation. The
// double-check loop closes the race against a concurrent swap: a
// handle is only returned if the generation was still current after
// the increment, so a retired generation can never be revived.
func (s *Store) Acquire() *Generation {
	for {
		g := s.cur.Load()
		if g == nil {
			return nil
		}
		g.refs.Add(1)
		if s.cur.Load() == g {
			return g
		}
		g.Release()
	}
}

// Reload loads the file fresh and swaps it in. On failure it retries
// with backoff up to MaxAttempts, then rolls back: the current
// generation keeps serving and the store turns degraded until a later
// reload succeeds. Returns the serving generation id either way.
func (s *Store) Reload() (uint64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.closed.Load() {
		return 0, fmt.Errorf("refstore: store closed")
	}
	s.reloading.Store(true)
	defer s.reloading.Store(false)

	backoff := s.opts.RetryBackoff
	var lastErr error
	for try := 0; try < s.opts.MaxAttempts; try++ {
		gen, err := s.loadFile(s.path)
		if err == nil {
			gen.refs.Store(1)
			old := s.cur.Swap(gen)
			s.reloads.Add(1)
			s.degraded.Store(false)
			s.setLastErr(nil)
			s.logf("refstore: generation %d live (was %d, load %s, warmup %s)",
				gen.id, old.id, gen.load.Round(time.Millisecond), gen.warmup.Round(time.Millisecond))
			old.retired.Store(true)
			old.Release() // drop the store's hold; unmaps once drained
			return gen.id, nil
		}
		lastErr = err
		s.failures.Add(1)
		s.logf("refstore: reload attempt %d/%d failed: %v", try+1, s.opts.MaxAttempts, err)
		if try < s.opts.MaxAttempts-1 {
			time.Sleep(backoff)
			backoff *= 2
		}
	}

	cur := s.cur.Load()
	s.rollbacks.Add(1)
	s.degraded.Store(true)
	s.setLastErr(lastErr)
	err := fmt.Errorf("refstore: reload rolled back after %d attempts, still serving generation %d: %w",
		s.opts.MaxAttempts, cur.id, lastErr)
	s.logf("%v", err)
	return cur.id, err
}

// loadFile validates and assembles one generation from path, via mmap
// when available (the zero-copy steady state) or a private read.
func (s *Store) loadFile(path string) (*Generation, error) {
	if s.opts.NoMmap || !mmapSupported {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return s.loadBytes(data, 0)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < headerBytes {
		return nil, fmt.Errorf("refstore: %s is %d bytes, too short for an index", path, st.Size())
	}
	mapped, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("refstore: mmap %s: %w", path, err)
	}
	gen, err := s.loadBytes(mapped, int64(len(mapped)))
	if err != nil {
		munmapFile(mapped)
		return nil, err
	}
	gen.mapped = mapped
	gen.info.Path = path
	return gen, nil
}

// loadBytes runs validation + assembly over one container image.
// mappedLen > 0 marks the image as an mmap for warmup accounting.
func (s *Store) loadBytes(data []byte, mappedLen int64) (*Generation, error) {
	t0 := time.Now()
	ref, ix, info, err := Decode(data)
	if err != nil {
		return nil, err
	}
	gen := &Generation{
		id:    s.nextID.Add(1),
		ref:   ref,
		index: ix,
		info:  info,
		load:  time.Since(t0),
	}
	if mappedLen > 0 && !s.opts.NoWarmup {
		w0 := time.Now()
		touchPages(data)
		gen.warmup = time.Since(w0)
	}
	gen.info.Path = s.path
	return gen, nil
}

// Status snapshots the store.
func (s *Store) Status() Status {
	if s == nil {
		return Status{}
	}
	st := Status{
		Path:           s.path,
		Reloads:        s.reloads.Load(),
		ReloadFailures: s.failures.Load(),
		Rollbacks:      s.rollbacks.Load(),
		DegradedReload: s.degraded.Load(),
	}
	s.lastErrMu.Lock()
	st.LastReloadError = s.lastErr
	s.lastErrMu.Unlock()
	if g := s.Acquire(); g != nil {
		st.Generation = g.id
		st.FileBytes = g.info.FileBytes
		st.MappedBytes = g.MappedBytes()
		st.Contigs = g.info.Contigs
		st.LoadMs = float64(g.load) / 1e6
		st.WarmupMs = float64(g.warmup) / 1e6
		g.Release()
	}
	return st
}

// Path returns the index file path the store serves from.
func (s *Store) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// Close retires the current generation and drops the store's hold.
// Outstanding handles stay valid until their own Release.
func (s *Store) Close() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if old := s.cur.Swap(nil); old != nil {
		old.retired.Store(true)
		old.Release()
	}
}

func (s *Store) setLastErr(err error) {
	s.lastErrMu.Lock()
	if err == nil {
		s.lastErr = ""
	} else {
		s.lastErr = err.Error()
	}
	s.lastErrMu.Unlock()
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// sizeOf renders a byte count for log lines.
func sizeOf(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
