// Package obs is the observability layer of the serving stack: span
// tracing over the speculate-check-rerun pipeline, the SLO burn-rate
// engine, the flight recorder, and request-id generation for end-to-end
// correlation. The server's metric table (internal/server/metrics.go)
// renders the metrics, these included, in both /metrics formats.
//
// The tracer is built so the extend hot path pays nothing when tracing is
// off and almost nothing when it is on:
//
//   - A disabled tracer is a nil *Tracer; every method is nil-safe, so
//     instrumentation sites are one pointer compare (the Ref zero value is
//     the permanent "not recorded" fast path — no branches beyond the nil
//     check, no allocation ever).
//   - A span is written to exactly one place: its request's journey buffer
//     (tail.go), checked out at admission when tail retention is on or the
//     request is the 1-in-SampleEvery head pick. Recording claims a slot
//     with one atomic add and publishes it with a release store. No locks,
//     no allocation, no strings.
//   - One verdict at completion decides what is kept — the head pick, the
//     K slowest requests so far, and the tail rules (budget, status,
//     event) — as immutable copies; every other buffer is recycled.
//
// Spans export as Chrome trace_event JSON (load into chrome://tracing or
// Perfetto) and as NDJSON.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/align"
)

// Kind enumerates the pipeline stages a span can cover, mirroring the
// paper's Figure 10/12 dataflow: admission, batch formation, the packed
// kernel tier, the optimality check verdict, and the host rerun budget.
type Kind uint8

const (
	// KindRequest is the root span: one HTTP request on a job endpoint.
	KindRequest Kind = iota
	// KindQueueWait covers admission -> batch dispatch for one job.
	KindQueueWait
	// KindFlush covers batch formation: first job enqueued -> worker
	// pickup (the size/deadline flush trigger window).
	KindFlush
	// KindKernel covers the packed speculate+check compute of one batch.
	KindKernel
	// KindCheck is an instant span carrying one job's check outcome.
	KindCheck
	// KindRerun covers the host rerun of a batch's failed checks: one
	// pooled interval, recorded on every job that was rerun in it.
	KindRerun
	// KindMapStage covers one stage of a /v1/map batch, shared by every
	// read in it (v1 = stage, a MapStage* value; v2 = reads in the batch).
	// The five stages tile the batch's KindKernel span.
	KindMapStage
	numKinds
)

var kindNames = [numKinds]string{
	"request", "queue_wait", "batch_flush", "kernel", "check", "host_rerun",
	"map_stage",
}

// Stage values for KindMapStage spans (v1): the map path's dataflow.
const (
	MapStageSeed        = iota // both strands of every read
	MapStageChain              // every read's seeds into chains to extend
	MapStageExtendLeft         // the batch's pooled left extensions
	MapStageExtendRight        // the batch's pooled right extensions and per-chain winners
	MapStageResolve            // cross-contig drop, ranking, traceback, SAM — per read
)

var mapStageNames = [...]string{"seed", "chain", "extend_left", "extend_right", "resolve"}

// MapStageName renders a KindMapStage span's v1 for exports.
func MapStageName(v int64) string {
	if v >= 0 && int(v) < len(mapStageNames) {
		return mapStageNames[v]
	}
	return "unknown"
}

// String names the stage for exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "span"
}

// TierUnknown is the KindKernel span v1 of extenders whose tiering the
// server cannot see (the unchecked extenders); every other v1 is one of
// the align package's tiers (align.TierNative ...).
const TierUnknown = -1

// TierName renders a KindKernel span's v1 for exports.
func TierName(v int64) string { return align.TierName(int(v)) }

// Config tunes a Tracer.
type Config struct {
	// SampleEvery is head sampling: 1 keeps every request's journey, N
	// keeps one request in N (the "sampled" verdict rule). Zero or negative
	// turns it off; with tail retention off too, New returns nil (the
	// permanent fast path).
	SampleEvery int
	// SlowK is the size of the slow top-K: the K slowest requests so far
	// are kept regardless of sampling (the "slow" rule; default 64).
	SlowK int
	// Tail configures tail-based retention and the kept-journey store; see
	// TailConfig.
	Tail TailConfig
}

func (c Config) withDefaults() Config {
	if c.SlowK <= 0 {
		c.SlowK = 64
	}
	c.Tail = c.Tail.withDefaults()
	return c
}

// Tracer records pipeline spans into per-request journey buffers and
// keeps the journeys its verdict selects. A nil *Tracer is valid and
// disabled; every method is nil-safe.
type Tracer struct {
	cfg       Config
	epoch     time.Time
	epochWall int64     // wall ns of epoch, for exports
	pool      sync.Pool // reusable *journey buffers

	next      atomic.Uint64 // head-sampling counter
	sampled   atomic.Int64  // requests picked by head sampling
	started   atomic.Int64  // journeys checked out
	kept      atomic.Int64  // journeys the verdict retained
	spans     atomic.Int64  // spans copied into retained journeys
	spanDrops atomic.Int64  // spans dropped on full journey buffers

	// slowMin is the duration a request must beat to enter the slow top-K
	// once it is full (-1 while it fills), read without the lock.
	slowMin atomic.Int64
	mu      sync.Mutex
	store   []*JourneyData // kept journeys, oldest first, at most Tail.Keep
	slow    slowHeap       // the SlowK slowest requests so far
}

// New builds a Tracer, or returns nil (tracing disabled) when neither
// head sampling (cfg.SampleEvery > 0) nor tail retention
// (cfg.Tail.Enabled) is requested. All Tracer and Ref methods are
// nil-safe, so the returned value can be threaded unconditionally.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 && !cfg.Tail.Enabled {
		return nil
	}
	cfg = cfg.withDefaults()
	now := time.Now()
	t := &Tracer{cfg: cfg, epoch: now, epochWall: now.UnixNano()}
	t.pool.New = func() any {
		return &journey{t: t, slots: make([]jslot, cfg.Tail.MaxSpans)}
	}
	t.slowMin.Store(-1)
	return t
}

// Ref is one request's trace handle: its journey buffer, or nil when the
// request is not recorded. The zero Ref (not recorded, or tracing
// disabled) makes every method a nil-check no-op, so Refs are carried by
// value through job structs unconditionally.
type Ref struct {
	j *journey
}

// Sampled reports whether spans recorded through this Ref land in a
// journey buffer.
func (r Ref) Sampled() bool { return r.j != nil }

// Sample makes the per-request recording decision: the request gets a
// journey buffer when tail retention is on or it is the 1-in-SampleEvery
// head pick; every other request (and every request on a nil tracer)
// gets the zero Ref.
func (t *Tracer) Sample(id uint64) Ref {
	if t == nil {
		return Ref{}
	}
	head := t.cfg.SampleEvery > 0 && t.next.Add(1)%uint64(t.cfg.SampleEvery) == 0
	if !head && !t.cfg.Tail.Enabled {
		return Ref{}
	}
	if head {
		t.sampled.Add(1)
	}
	t.started.Add(1)
	// A pool miss allocates here, on the handler goroutine at admission,
	// never on the batch-worker hot path.
	j := t.pool.Get().(*journey)
	j.id, j.head = id, head
	return Ref{j: j}
}

// Span records one completed span: stage kind, start time, duration, and
// two kind-specific values (see the Kind docs and the export arg names).
// Zero-allocation; safe from any goroutine.
func (r Ref) Span(k Kind, start time.Time, dur time.Duration, v1, v2 int64) {
	r.SpanLink(k, start, dur, v1, v2, 0)
}

// SpanLink is Span with a cross-layer stitch id (see SpanData.Link).
// Zero-allocation.
func (r Ref) SpanLink(k Kind, start time.Time, dur time.Duration, v1, v2, link int64) {
	if j := r.j; j != nil {
		j.record(SpanData{
			Trace: j.id, Kind: k,
			Start: int64(start.Sub(j.t.epoch)), Dur: int64(dur),
			V1: v1, V2: v2, Link: link,
		})
	}
}

// Mark flags a tail-retention event on the request's journey (no-op for
// refs without a journey buffer). Zero-allocation; safe from any
// goroutine.
func (r Ref) Mark(e Event) {
	if r.j != nil {
		r.j.mark(e)
	}
}

// Detach marks the journey as having in-flight writers at request
// completion (e.g. a deadline exceeded with jobs still queued): the
// buffer is still verdicted and retained, but is left to the garbage
// collector instead of being recycled, so straggler span writes can
// never corrupt a reused buffer.
func (r Ref) Detach() {
	if r.j != nil {
		r.j.detached.Store(true)
	}
}

// Stats is the tracer's own health snapshot for /metrics.
type Stats struct {
	SampleEvery   int   `json:"sample_every"`
	SampledTotal  int64 `json:"sampled_requests"`
	SpansTotal    int64 `json:"spans_recorded"`
	SlowRetained  int   `json:"slow_retained"`
	TailEnabled   bool  `json:"tail_enabled,omitempty"`
	TailStarted   int64 `json:"tail_started,omitempty"`
	TailKept      int64 `json:"tail_retained_total,omitempty"`
	TailRetained  int   `json:"tail_retained,omitempty"`
	TailSpanDrops int64 `json:"tail_span_drops,omitempty"`
}

// TraceStats snapshots the tracer's own counters (zero when disabled).
// SpansTotal counts the spans copied into retained journeys.
func (t *Tracer) TraceStats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	slow, retained := len(t.slow), len(t.retained())
	t.mu.Unlock()
	st := Stats{
		SampleEvery:  t.cfg.SampleEvery,
		SampledTotal: t.sampled.Load(),
		SpansTotal:   t.spans.Load(),
		SlowRetained: slow,
	}
	if t.cfg.Tail.Enabled {
		st.TailEnabled = true
		st.TailStarted = t.started.Load()
		st.TailKept = t.kept.Load()
		st.TailRetained = retained
		st.TailSpanDrops = t.spanDrops.Load()
	}
	return st
}

// SpanData is one exported span. Link, when nonzero, stitches the span
// to the adjacent layer's unit of work: the index generation (negated) on
// map kernel spans.
type SpanData struct {
	Trace uint64
	Kind  Kind
	Start int64 // ns since tracer epoch
	Dur   int64 // ns
	V1    int64
	V2    int64
	Link  int64
}

// Epoch returns the tracer's time base (wall clock at New).
func (t *Tracer) Epoch() (time.Time, int64) {
	if t == nil {
		return time.Time{}, 0
	}
	return t.epoch, t.epochWall
}
