// Package obs is the observability layer of the serving stack: span
// tracing over the speculate-check-rerun pipeline, a Prometheus text
// exposition registry over the existing atomic counters and power-of-two
// histograms, and request-id generation for end-to-end correlation.
//
// The tracer is built so the extend hot path pays nothing when tracing is
// off and almost nothing when it is on:
//
//   - A disabled tracer is a nil *Tracer; every method is nil-safe, so
//     instrumentation sites are one pointer compare (the Ref zero value is
//     the permanent "not sampled" fast path — no branches beyond the nil
//     check, no allocation ever).
//   - Recording a span writes fixed-size atomic fields into a slot of a
//     lock-free ring (one atomic fetch-add to claim the slot, a seqlock
//     pair around the field stores). No locks, no allocation, no strings.
//   - Sampling is head-based: the decision is made once per request at
//     admission and carried by value (Ref) through the batcher into the
//     workers, so unsampled requests never touch a ring.
//
// Alongside the sampled rings, a small always-on ring retains the top-K
// slowest requests by duration regardless of sampling, so tail latencies
// survive even aggressive sampling. Spans export as Chrome trace_event
// JSON (load into chrome://tracing or Perfetto) and as NDJSON.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/align"
)

// Kind enumerates the pipeline stages a span can cover, mirroring the
// paper's Figure 10/12 dataflow: admission, batch formation, the packed
// kernel tier, the optimality check verdict, device round-trips, and the
// host rerun budget.
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
	// KindDevice covers one device batch attempt (DMA + batch_start ..
	// batch_done + retrieval).
	KindDevice
	// KindRetry covers one retry backoff wait between device attempts.
	KindRetry
	// KindIndexReload covers one reference-index reload attempt, from
	// trigger to publish or rollback (v1 = generation, v2 = ok).
	KindIndexReload
	// KindSteal is an instant span marking that a job's batch was stolen
	// and executed on a thief shard (v1 = victim shard, v2 = thief shard).
	KindSteal
	// KindMapStage covers one stage of a /v1/map batch, shared by every
	// read in it (v1 = stage, a MapStage* value; v2 = reads in the batch).
	// The four stages tile the batch's KindKernel span.
	KindMapStage
	numKinds
)

var kindNames = [numKinds]string{
	"request", "queue_wait", "batch_flush", "kernel", "check", "host_rerun",
	"device", "retry_backoff", "index_reload", "steal", "map_stage",
}

// Stage values for KindMapStage spans (v1): the map path's dataflow.
const (
	MapStagePlan        = iota // seed, chain — per read
	MapStageExtendLeft         // the batch's pooled left extensions
	MapStageExtendRight        // the batch's pooled right extensions
	MapStageResolve            // cross-contig drop, ranking, traceback, SAM — per read
)

var mapStageNames = [...]string{"plan", "extend_left", "extend_right", "resolve"}

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

// Tier values for KindKernel spans (v1): the align package's tier ladder.
// TierUnknown marks extenders whose tiering the server cannot see (device
// engines, third-party extenders).
const (
	TierNative  = align.TierNative
	TierSWAR8   = align.TierSWAR8
	TierSWAR16  = align.TierSWAR16
	TierScalar  = align.TierScalar
	TierUnknown = -1
)

// TierName renders a KindKernel span's v1 for exports.
func TierName(v int64) string { return align.TierName(int(v)) }

// Config tunes a Tracer.
type Config struct {
	// SampleEvery enables tracing: 1 records every request, N records one
	// request in N (head-based). Zero or negative disables tracing (New
	// returns nil, the permanent fast path).
	SampleEvery int
	// RingSpans is the span capacity of each shard ring (rounded up to a
	// power of two; default 4096). Old spans are overwritten.
	RingSpans int
	// Shards is the number of independent span rings (default 8, rounded
	// up to a power of two). Writers shard by trace id, so one request's
	// spans stay in one ring in recording order.
	Shards int
	// SlowK is the size of the always-retained slow-request ring (top-K
	// requests by duration, regardless of sampling; default 64).
	SlowK int
	// SlowMin is the minimum duration for a request to compete for the
	// slow ring (default 0: every request competes).
	SlowMin time.Duration
	// Tail configures tail-based retention: every request records its
	// spans into a reusable per-request journey buffer and a verdict at
	// completion decides whether the full journey is kept. Independent of
	// head sampling; see TailConfig.
	Tail TailConfig
}

func (c Config) withDefaults() Config {
	if c.RingSpans <= 0 {
		c.RingSpans = 4096
	}
	c.RingSpans = 1 << bits.Len64(uint64(c.RingSpans-1))
	if c.Shards <= 0 {
		c.Shards = 8
	}
	c.Shards = 1 << bits.Len64(uint64(c.Shards-1))
	if c.SlowK <= 0 {
		c.SlowK = 64
	}
	return c
}

// slot is one ring entry. All fields are atomics and writes are framed by
// the seq seqlock (odd while a writer is inside), so a concurrent exporter
// either reads a consistent span or skips the slot — recording never
// blocks and never races.
type slot struct {
	seq   atomic.Uint64
	trace atomic.Uint64
	start atomic.Int64  // ns since tracer epoch
	dur   atomic.Int64  // ns
	meta  atomic.Uint64 // kind
	v1    atomic.Int64
	v2    atomic.Int64
	link  atomic.Int64 // cross-layer stitch id (see SpanData.Link)
}

// ring is one lock-free span ring: pos claims slots, slots wrap.
type ring struct {
	pos   atomic.Uint64
	slots []slot
}

// Tracer records pipeline spans into per-shard lock-free rings. A nil
// *Tracer is valid and disabled; every method is nil-safe.
type Tracer struct {
	cfg       Config
	epoch     time.Time
	epochWall int64 // wall ns of epoch, for exports
	shardMask uint64
	shards    []ring

	next    atomic.Uint64 // head-sampling counter
	sampled atomic.Int64  // requests selected by head sampling
	spans   atomic.Int64  // spans recorded

	slow slowRing
	tail *tailState // nil when tail retention is disabled
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
	t := &Tracer{
		cfg:       cfg,
		epoch:     time.Now(),
		epochWall: time.Now().UnixNano(),
		shardMask: uint64(cfg.Shards - 1),
		shards:    make([]ring, cfg.Shards),
	}
	for i := range t.shards {
		t.shards[i].slots = make([]slot, cfg.RingSpans)
	}
	t.slow.init(cfg.SlowK, cfg.SlowMin)
	if cfg.Tail.Enabled {
		t.tail = newTailState(cfg.Tail)
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// SampleEvery reports the head-sampling ratio (0 when disabled).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return t.cfg.SampleEvery
}

// Ref is one request's trace handle: a Tracer plus the request's trace
// id, a head-sampling decision (ring), and an optional tail journey
// buffer (j). The zero Ref (not sampled, or tracing disabled) makes
// every method a nil-check no-op, so Refs are carried by value through
// job structs unconditionally.
type Ref struct {
	t    *Tracer
	j    *journey // tail journey buffer (nil when tail is off / not started)
	id   uint64
	ring bool // head-sampled: spans also land in the shared rings
}

// Sampled reports whether spans recorded through this Ref are retained
// anywhere (shared rings, tail journey, or both).
func (r Ref) Sampled() bool { return r.t != nil && (r.ring || r.j != nil) }

// TraceID returns the trace id (0 when not sampled).
func (r Ref) TraceID() uint64 { return r.id }

// Sample makes the per-request sampling decision: head sampling picks
// one request in SampleEvery for the shared rings, and when tail
// retention is enabled every request additionally records into a
// reusable journey buffer (verdict at RequestDone). On a nil tracer it
// returns the zero Ref.
func (t *Tracer) Sample(id uint64) Ref {
	if t == nil {
		return Ref{}
	}
	ring := t.cfg.SampleEvery > 0
	if ring {
		if n := t.next.Add(1); t.cfg.SampleEvery > 1 && n%uint64(t.cfg.SampleEvery) != 0 {
			ring = false
		}
	}
	var j *journey
	if t.tail != nil {
		j = t.tail.checkout(id)
	}
	if !ring && j == nil {
		return Ref{}
	}
	if ring {
		t.sampled.Add(1)
	}
	return Ref{t: t, j: j, id: id, ring: ring}
}

// Batch returns an always-recording Ref for batch- or device-scoped spans
// that have no single owning request (trace id derived from the batch
// key). Nil-safe: a disabled tracer returns the zero Ref.
func (t *Tracer) Batch(key int64) Ref {
	if t == nil {
		return Ref{}
	}
	return Ref{t: t, id: BatchTraceID(key), ring: true}
}

// BatchTraceID maps a batch key to the trace id Batch records under, so
// request-level views can stitch in the device-layer spans linked from a
// kernel span (SpanData.Link carries the batch key).
func BatchTraceID(key int64) uint64 {
	return mix64(uint64(key) ^ 0xba7c4ba7c4)
}

// Span records one completed span: stage kind, start time, duration, and
// two kind-specific values (see the Kind docs and the export arg names).
// Zero-allocation; safe from any goroutine.
func (r Ref) Span(k Kind, start time.Time, dur time.Duration, v1, v2 int64) {
	r.SpanLink(k, start, dur, v1, v2, 0)
}

// SpanLink is Span with a cross-layer stitch id: the link names the
// adjacent layer's unit of work (device batch key on kernel spans, index
// generation on map kernel spans; see SpanData.Link). Zero-allocation.
func (r Ref) SpanLink(k Kind, start time.Time, dur time.Duration, v1, v2, link int64) {
	t := r.t
	if t == nil {
		return
	}
	if r.j != nil {
		r.j.record(t, SpanData{
			Trace: r.id, Kind: k,
			Start: int64(start.Sub(t.epoch)), Dur: int64(dur),
			V1: v1, V2: v2, Link: link,
		})
	}
	if !r.ring {
		return
	}
	sh := &t.shards[mix64(r.id)&t.shardMask]
	s := &sh.slots[(sh.pos.Add(1)-1)&uint64(len(sh.slots)-1)]
	s.seq.Add(1) // odd: write in progress
	s.trace.Store(r.id)
	s.start.Store(int64(start.Sub(t.epoch)))
	s.dur.Store(int64(dur))
	s.meta.Store(uint64(k))
	s.v1.Store(v1)
	s.v2.Store(v2)
	s.link.Store(link)
	s.seq.Add(1) // even: stable
	t.spans.Add(1)
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

// RequestDone closes one request: the root span is recorded when the
// request was sampled, the request always competes for the slow ring
// (top-K by duration), and when tail retention is on the journey verdict
// runs (keep the full journey, or recycle the buffer). v1 is the
// request's job count, v2 its HTTP status.
func (t *Tracer) RequestDone(ref Ref, id uint64, start time.Time, dur time.Duration, v1, v2 int64) {
	if t == nil {
		return
	}
	ref.Span(KindRequest, start, dur, v1, v2)
	t.slow.offer(SpanData{
		Trace: id, Kind: KindRequest,
		Start: int64(start.Sub(t.epoch)), Dur: int64(dur),
		V1: v1, V2: v2,
	})
	if ref.j != nil {
		t.tail.finish(ref.j, start.Sub(t.epoch), dur, v1, v2)
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
func (t *Tracer) TraceStats() Stats {
	if t == nil {
		return Stats{}
	}
	st := Stats{
		SampleEvery:  t.cfg.SampleEvery,
		SampledTotal: t.sampled.Load(),
		SpansTotal:   t.spans.Load(),
		SlowRetained: t.slow.len(),
	}
	if t.tail != nil {
		st.TailEnabled = true
		st.TailStarted = t.tail.started.Load()
		st.TailKept = t.tail.kept.Load()
		st.TailRetained = t.tail.retainedLen()
		st.TailSpanDrops = t.tail.spanDrops.Load()
	}
	return st
}

// SpanData is one exported span. Link, when nonzero, stitches the span
// to the adjacent layer's unit of work: the device batch key on extend
// kernel spans (resolve with BatchTraceID), the index generation on map
// kernel spans.
type SpanData struct {
	Trace uint64
	Kind  Kind
	Shard int
	Start int64 // ns since tracer epoch
	Dur   int64 // ns
	V1    int64
	V2    int64
	Link  int64
}

// Snapshot copies every stable span out of the rings, oldest first.
// Slots being overwritten mid-read are skipped (bounded retries), so a
// snapshot taken under live recording is consistent span-by-span.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	var out []SpanData
	for si := range t.shards {
		sh := &t.shards[si]
		for i := range sh.slots {
			if sd, ok := readSlot(&sh.slots[i]); ok {
				sd.Shard = si
				out = append(out, sd)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TraceSpans returns the snapshot filtered to one trace id.
func (t *Tracer) TraceSpans(id uint64) []SpanData {
	all := t.Snapshot()
	out := all[:0]
	for _, s := range all {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// SlowSnapshot returns the retained slowest request spans, slowest first.
func (t *Tracer) SlowSnapshot() []SpanData {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// Epoch returns the tracer's time base (wall clock at New).
func (t *Tracer) Epoch() (time.Time, int64) {
	if t == nil {
		return time.Time{}, 0
	}
	return t.epoch, t.epochWall
}

// readSlot reads one slot under the seqlock protocol, retrying a bounded
// number of times before giving up on a hot slot.
func readSlot(s *slot) (SpanData, bool) {
	for try := 0; try < 4; try++ {
		s1 := s.seq.Load()
		if s1 == 0 || s1&1 != 0 {
			return SpanData{}, false // empty or mid-write
		}
		sd := SpanData{
			Trace: s.trace.Load(),
			Start: s.start.Load(),
			Dur:   s.dur.Load(),
			Kind:  Kind(s.meta.Load()),
			V1:    s.v1.Load(),
			V2:    s.v2.Load(),
			Link:  s.link.Load(),
		}
		if s.seq.Load() == s1 {
			return sd, true
		}
	}
	return SpanData{}, false
}

// slowRing retains the top-K slowest request spans. The min threshold is
// published through an atomic so the overwhelmingly common case (request
// faster than the current K-th slowest) skips without the lock.
type slowRing struct {
	min     atomic.Int64 // current admission threshold (ns)
	mu      sync.Mutex
	k       int
	floor   int64
	entries []SpanData // min-heap by Dur
}

func (s *slowRing) init(k int, minDur time.Duration) {
	s.k = k
	s.floor = int64(minDur)
	s.min.Store(s.floor)
}

func (s *slowRing) offer(sd SpanData) {
	if sd.Dur < s.min.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) < s.k {
		s.entries = append(s.entries, sd)
		s.up(len(s.entries) - 1)
		if len(s.entries) == s.k {
			s.min.Store(s.entries[0].Dur)
		}
		return
	}
	if sd.Dur <= s.entries[0].Dur {
		return
	}
	s.entries[0] = sd
	s.down(0)
	s.min.Store(s.entries[0].Dur)
}

func (s *slowRing) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.entries[p].Dur <= s.entries[i].Dur {
			return
		}
		s.entries[p], s.entries[i] = s.entries[i], s.entries[p]
		i = p
	}
}

func (s *slowRing) down(i int) {
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(s.entries) && s.entries[l].Dur < s.entries[m].Dur {
			m = l
		}
		if r < len(s.entries) && s.entries[r].Dur < s.entries[m].Dur {
			m = r
		}
		if m == i {
			return
		}
		s.entries[m], s.entries[i] = s.entries[i], s.entries[m]
		i = m
	}
}

func (s *slowRing) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

func (s *slowRing) snapshot() []SpanData {
	s.mu.Lock()
	out := append([]SpanData(nil), s.entries...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// mix64 is SplitMix64's finalizer: the shard and batch-id hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
