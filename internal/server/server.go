package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/faults"
	"seedex/internal/fmindex"
	"seedex/internal/obs"
	"seedex/internal/refstore"
)

// Config assembles a Server.
type Config struct {
	// Extender drives /v1/extend and /v1/extend/stream. Required. Workers
	// drive it through the core.BatchEngine contract (core.EngineSession):
	// checked engines — *core.SeedEx, the driver's Engine — run the full
	// speculate-check-rerun workflow and their responses carry the rerun
	// flag; any other extender runs its plain batch path.
	Extender align.Extender
	// RefStore, when non-nil, enables /v1/map (full read mapping) from
	// the crash-safe generation store: map workers follow the store's
	// current generation (mmap-backed, hot-reloadable via
	// POST /admin/reload or the store's own triggers), rebuilding their
	// mapping session when a reload publishes a new generation.
	// In-flight batches drain on the generation they acquired.
	RefStore *refstore.Store
	// NewAligner builds the mapping aligner over one generation's
	// reference and index (the embedder wires the extender, options and
	// shared stats sink). Required when RefStore is set.
	NewAligner func(ref *bwamem.Reference, ix *fmindex.Index) *bwamem.Aligner
	// MapStats is read by nothing.
	//
	// Deprecated: it carried the removed pre-alignment filter tier's
	// counters; it stays only because the frozen benchmark/layers.go still
	// sets it.
	MapStats *core.Stats
	// Shards splits the service into that many independent shard units —
	// each its own micro-batcher, worker pool, extender (see NewExtender)
	// and, for engine-backed extenders, circuit breaker — behind the
	// routing tier, which sends each request to the healthy shard with the
	// fewest in-flight jobs. Default 1, which preserves the unsharded
	// pipeline (same worker loop, same one-FlushInterval latency bound).
	Shards int
	// NewExtender, when non-nil, builds shard i's extender, so every
	// shard gets its own engine (and so its own breaker and fault
	// domain). When nil, all shards share Extender — safe because
	// sessions are per-worker either way, but then all shards share one
	// health/breaker view too.
	NewExtender func(shard int) align.Extender
	// Batch tunes the extension micro-batcher; see BatcherConfig for the
	// defaults (flush at 64 jobs or 200µs).
	Batch BatcherConfig
	// MapBatch tunes the mapping micro-batcher. Mapping jobs cost far more
	// than single extensions, so its defaults are smaller: flush at 16
	// reads or the same interval.
	MapBatch BatcherConfig
	// MaxJobsPerRequest bounds one POST body (default 4096 jobs or reads).
	MaxJobsPerRequest int
	// MaxSeqLen bounds one query or target sequence (default 100_000).
	MaxSeqLen int
	// MaxBodyBytes bounds one request body (including a whole NDJSON
	// stream); larger bodies answer 413 instead of being read without
	// bound. Default: room for a maximal legitimate request —
	// MaxJobsPerRequest jobs of two MaxSeqLen sequences plus JSON framing.
	MaxBodyBytes int64
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Trace, when non-nil, records pipeline spans (admission, queue wait,
	// batch flush, kernel tier, check outcome, host rerun) for sampled
	// requests and exports them at /debug/traces. A nil tracer costs the
	// job endpoints one pointer compare per instrumentation site. Tail
	// retention (obs.Config.Tail) additionally keeps the full journey of
	// every request that breaches its budget, fails, or crosses a steal,
	// reroute, reload overlap or fault.
	Trace *obs.Tracer
	// Build identifies the binary for seedex_build_info (stamped from
	// -ldflags in cmd/seedex-serve; defaults dev/unknown).
	Build obs.BuildInfo
	// SLO tunes the burn-rate engine's declared objectives; the zero
	// value enables it with defaults (see SLOConfig).
	SLO SLOConfig
	// Flight configures the flight recorder; an empty Dir disables it.
	// With a recorder configured the server also starts a watcher that
	// dumps automatically on breaker trips, reload rollbacks and
	// fast-burn SLO alerts.
	Flight obs.FlightConfig
	// FlightPoll is the watcher's trigger-polling cadence (default 2s).
	FlightPoll time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MapBatch.MaxBatch <= 0 {
		c.MapBatch.MaxBatch = 16
	}
	if c.MapBatch.FlushInterval == 0 {
		// Inherit the extension flush setting, sentinel included: an
		// opportunistic (negative) Batch interval carries over.
		c.MapBatch.FlushInterval = c.Batch.FlushInterval
	}
	if c.MaxJobsPerRequest <= 0 {
		c.MaxJobsPerRequest = 4096
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = 100_000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = int64(c.MaxJobsPerRequest) * int64(2*c.MaxSeqLen+512)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the alignment service: micro-batching pipelines over the
// packed extension kernels plus the HTTP surface. Create with New, expose
// via Handler, stop with StartDrain + Close.
type Server struct {
	cfg    Config
	met    *Metrics
	shards []*shard
	router *router
	stats  []*core.Stats // distinct check-statistics sources across shards
	// health is the fault-tolerance view (breaker state, fault, retry and
	// degradation counters) /metrics and /healthz report for the whole
	// server: the shared extender's, when every shard runs cfg.Extender
	// and it has one; nil otherwise.
	health   func() faults.Health
	trace    *obs.Tracer // nil when tracing is disabled
	reg      *obs.Registry
	mux      *http.ServeMux
	draining atomic.Bool
	started  time.Time

	slo        *obs.SLO
	flight     *obs.FlightRecorder
	flightStop chan struct{}
	flightDone chan struct{}
	closeOnce  sync.Once
}

// New builds the shard pool, the routing tier and the HTTP mux. The
// caller owns cfg.Extender / cfg.NewExtender's engines (and cfg.RefStore);
// the server owns everything it starts.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// Resolve the batcher defaults up front: the worker factories read the
	// final values through s.cfg before the pools start.
	cfg.Batch = cfg.Batch.withDefaults()
	cfg.MapBatch = cfg.MapBatch.withDefaults()
	if cfg.RefStore != nil && cfg.NewAligner == nil {
		panic("server: Config.RefStore requires Config.NewAligner")
	}
	s := &Server{cfg: cfg, met: &Metrics{}, trace: cfg.Trace, reg: obs.NewRegistry(), mux: http.NewServeMux(), started: time.Now()}
	// Steal groups link the per-shard batchers once all exist; with one
	// shard they stay nil and the worker loops match the unsharded server.
	var extGroup *stealGroup[extJob]
	var mapGroup *stealGroup[mapJob]
	if cfg.Shards > 1 {
		extGroup = &stealGroup[extJob]{}
		if s.mapEnabled() {
			mapGroup = &stealGroup[mapJob]{}
		}
	}
	// Distinct check-statistics sources merge into one snapshot: shards
	// sharing an extender share one source.
	seenStats := make(map[*core.Stats]bool)
	addStats := func(st *core.Stats) {
		if st != nil && !seenStats[st] {
			seenStats[st] = true
			s.stats = append(s.stats, st)
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		ext := cfg.Extender
		if cfg.NewExtender != nil {
			ext = cfg.NewExtender(i)
		}
		sh := &shard{id: i, engine: resolveEngine(ext), sm: &shardMetrics{}}
		addStats(sh.stats)
		sh.ext = newBatcher(cfg.Batch, s.met, shardHooks[extJob]{sh.sm, extGroup, i}, align.NumShapeBins, sh.binOf,
			func() func([]extJob) { return s.extWorker(sh) })
		if s.mapEnabled() {
			sh.maps = newBatcher(cfg.MapBatch, s.met, shardHooks[mapJob]{sh.sm, mapGroup, i}, 1, nil,
				func() func([]mapJob) { return s.mapWorker(sh) })
		}
		s.shards = append(s.shards, sh)
	}
	if cfg.NewExtender == nil {
		// Every shard shares cfg.Extender, so its health is the server's.
		s.health = s.shards[0].health
	}
	linkPeers(extGroup, s.shards, extPipe)
	linkPeers(mapGroup, s.shards, mapPipe)
	s.router = &router{shards: s.shards}
	s.cfg.Build = s.cfg.Build.WithDefaults()
	s.slo = s.newSLO()
	s.slo.Start()
	s.flight = obs.NewFlightRecorder(cfg.Flight)
	if s.flight != nil {
		s.startFlightWatcher()
	}
	s.reg.Register(s.collectProm)
	s.routes()
	return s
}

// Handler returns the HTTP surface:
//
//	POST /v1/extend         JSON batch of extension jobs
//	POST /v1/extend/stream  NDJSON job stream, results in input order
//	POST /v1/map            JSON batch of reads -> SAM records (with RefStore)
//	GET  /metrics           operational counters + check + fault statistics
//	GET  /healthz           ok / degraded / draining
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain stops admitting work: job endpoints answer 503 and healthz
// reports draining, while already-admitted jobs keep flowing. Call it
// before (or concurrently with) http.Server.Shutdown so in-flight
// handlers finish against live pipelines.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Close drains the pipelines: every queued job is computed, the worker
// pools exit, and pending handlers observe their results. Call after the
// HTTP server has stopped accepting requests.
func (s *Server) Close() {
	s.StartDrain()
	s.closeOnce.Do(func() {
		s.slo.Close()
		if s.flightStop != nil {
			close(s.flightStop)
			<-s.flightDone
		}
	})
	// Closing shard by shard is safe under work stealing: a peer still
	// draining may steal from a closing shard (helping it finish), and a
	// closing shard's workers finish any stolen batch before exiting on
	// their own closed channel.
	for _, sh := range s.shards {
		sh.ext.Close()
	}
	for _, sh := range s.shards {
		if sh.maps != nil {
			sh.maps.Close()
		}
	}
}

// Metrics exposes the live counters (shared with the /metrics endpoint).
// They aggregate over all shards; ShardSnapshots has the per-shard view.
func (s *Server) Metrics() *Metrics { return s.met }

// ShardSnapshots reads every shard's counters (the /metrics "shards"
// section).
func (s *Server) ShardSnapshots() []ShardSnapshot {
	out := make([]ShardSnapshot, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.snapshot()
	}
	return out
}

// queueTotals sums queue depth and capacity across the shards' batchers
// of one pipe — the aggregate the pre-sharding /metrics reported.
func queueTotals[T any](s *Server, pipe func(*shard) *batcher[T]) (depth, capacity int) {
	for _, sh := range s.shards {
		if b := pipe(sh); b != nil {
			depth += b.QueueDepth()
			capacity += b.QueueCap()
		}
	}
	return depth, capacity
}

// mapEnabled reports whether the mapping pipeline exists (Config.RefStore
// was set).
func (s *Server) mapEnabled() bool { return s.cfg.RefStore != nil }

// checksSnapshot merges the check statistics of every distinct stats
// source across the shards (shards sharing one extender share one
// source). ok is false when no shard keeps statistics.
func (s *Server) checksSnapshot() (core.StatsSnapshot, bool) {
	if len(s.stats) == 0 {
		return core.StatsSnapshot{}, false
	}
	out := s.stats[0].Snapshot()
	for _, st := range s.stats[1:] {
		snap := st.Snapshot()
		out.Total += snap.Total
		out.Passed += snap.Passed
		out.Reruns += snap.Reruns
		out.ThresholdOnly += snap.ThresholdOnly
		for i := range out.Outcomes {
			out.Outcomes[i] += snap.Outcomes[i]
		}
		out.DeviceFaults += snap.DeviceFaults
		out.DeviceRetries += snap.DeviceRetries
		out.BreakerTrips += snap.BreakerTrips
		out.HostOnly += snap.HostOnly
	}
	return out, true
}

// engine is everything a shard needs from its extender, resolved once by
// resolveEngine so nothing downstream asks what kind of extender it is.
type engine struct {
	// session mints one worker's batch engine (per-worker scratch).
	session func() core.BatchEngine
	// binOf keys a job by kernel shape when the extender's scoring is
	// discoverable (nil otherwise): jobs of like SWAR tier and length
	// class then coalesce into the same micro-batch, so the packed
	// kernels see dense lane groups even under interleaved mixed-shape
	// traffic (cross-batch scheduling, paper §V-B).
	binOf func(extJob) int
	// tier names the host SWAR tier a job's kernel span reports;
	// obs.TierUnknown when the sweep does not run on the host tiers.
	tier func(core.Request) int64
	// stats and health are the engine's check statistics and
	// fault-tolerance view; either may be nil (plain software extenders
	// have no breaker).
	stats  *core.Stats
	health func() faults.Health
}

// resolveEngine is the one place the server inspects an extender's
// concrete capabilities.
func resolveEngine(ext align.Extender) engine {
	e := engine{
		session: func() core.BatchEngine { return core.EngineSession(ext) },
		tier:    func(core.Request) int64 { return obs.TierUnknown },
	}
	if sp, ok := ext.(interface{ KernelScoring() align.Scoring }); ok {
		sc := sp.KernelScoring()
		e.binOf = func(j extJob) int { return align.ShapeBin(len(j.req.Q), len(j.req.T), j.req.H0, sc) }
	}
	switch x := ext.(type) {
	case *core.SeedEx:
		sc := x.Config.Scoring
		e.stats = x.Stats
		e.tier = func(r core.Request) int64 { return int64(align.TierOf(len(r.Q), len(r.T), r.H0, sc)) }
	case interface{ CheckStats() *core.Stats }:
		// Device-backed extenders (the FPGA driver engine).
		e.stats = x.CheckStats()
	}
	if h, ok := ext.(interface{ Health() faults.Health }); ok {
		e.health = h.Health
	}
	return e
}

// pending collects one request's results as its jobs complete, possibly
// across several batches. done closes when the last job lands.
type pending[R any] struct {
	res       []R
	remaining atomic.Int32
	expired   atomic.Int32
	done      chan struct{}
}

func newPending[R any](n int) *pending[R] {
	p := &pending[R]{res: make([]R, n), done: make(chan struct{})}
	p.remaining.Store(int32(n))
	return p
}

func (p *pending[R]) deliver(i int, r R) {
	p.res[i] = r
	if p.remaining.Add(-1) == 0 {
		close(p.done)
	}
}

// expire completes slot i without computing it: the job's deadline passed
// (or its client left) before a worker reached it. The zero-valued result
// must never be served — handlers check expired after done closes.
func (p *pending[R]) expire(i int) {
	p.expired.Add(1)
	var zero R
	p.deliver(i, zero)
}

// abandon discounts the never-submitted tail of a partially admitted
// request (total jobs, only the first submitted entered the queue). If
// the adjustment itself zeroes the counter — every submitted job was
// delivered before it landed — abandon closes done, because no deliver
// remains to do so. The close cannot race deliver: the counter crosses
// zero exactly once across all atomic adds, and whichever add observes
// zero owns the close.
func (p *pending[R]) abandon(submitted, total int) {
	if p.remaining.Add(int32(submitted-total)) == 0 {
		close(p.done)
	}
}

// job is one unit of work queued for micro-batching: the payload req of
// its endpoint plus the head every pipeline stage shares. sh is the shard
// that admitted the job (set on submit): its accounting follows the job
// even when a peer's worker steals the batch.
type job[P, R any] struct {
	ctx  context.Context
	req  P
	out  *pending[R]
	slot int // the job's index in out
	sh   *shard
	tr   obs.Ref // sampled trace handle (zero: not sampled)
	enq  time.Time
}

// extJob is one extension, mapJob one read for the mapping pipeline.
type (
	extJob = job[core.Request, ExtendResult]
	mapJob = job[mapRead, MapResult]
)

// mapRead is a mapJob's payload.
type mapRead struct {
	name []byte
	seq  []byte // base codes
	qual []byte // ASCII qualities or nil
}

// expireJob completes j without compute: its client is gone (deadline or
// disconnect), or the pipeline shut down under it. The job still resolves
// so its request's pending does.
func expireJob[P, R any](s *Server, j job[P, R]) {
	s.met.Expired.Add(1)
	j.sh.settleExpired()
	j.out.expire(j.slot)
}

// pickup is the shared head of both batch workers: every job's queue wait
// is observed, expired jobs resolve without compute, and the rest are
// returned (appended to live). A batch whose jobs were admitted by another
// shard arrived by work stealing: the event is flagged and where the batch
// really ran recorded (v1 = victim shard, v2 = thief shard).
func pickup[P, R any](s *Server, sh *shard, batch, live []job[P, R], now time.Time) []job[P, R] {
	for _, j := range batch {
		wait := now.Sub(j.enq)
		s.met.QueueWait.observe(wait.Nanoseconds())
		j.sh.sm.queueWait.observe(wait.Nanoseconds())
		j.tr.Span(obs.KindQueueWait, j.enq, wait, int64(len(batch)), 0)
		if j.ctx.Err() != nil {
			expireJob(s, j)
			continue
		}
		live = append(live, j)
	}
	if len(live) > 0 && live[0].sh.id != sh.id {
		for _, j := range live {
			j.tr.Mark(obs.EvSteal)
			j.tr.Span(obs.KindSteal, now, 0, int64(j.sh.id), int64(sh.id))
		}
	}
	return live
}

// extWorker returns one extension worker's batch processor for sh. The
// worker owns a session of the shard's engine (its scratch memory lives as
// long as the worker), so a batch runs allocation-free through whatever
// the engine is — software checker, device driver or plain extender —
// behind the one core.BatchEngine call. Stolen peer batches run through
// this worker's session too — the kernels are deterministic, so where a
// batch runs never shows in its results — while each job's admission
// accounting stays with the shard that admitted it (j.sh). With tracing
// enabled, sampled jobs record queue-wait, flush, kernel, check and rerun
// spans from the engine's timing report; with it disabled every span site
// is a single nil compare.
func (s *Server) extWorker(sh *shard) func([]extJob) {
	eng := sh.session()
	max := s.cfg.Batch.MaxBatch
	live := make([]extJob, 0, max)
	reqs := make([]core.Request, 0, max)
	resp := make([]core.Response, max)
	return func(batch []extJob) {
		now := time.Now()
		live = pickup(s, sh, batch, live[:0], now)
		if len(live) == 0 {
			return
		}
		// Flush span: batch formation from the oldest job's admission to
		// worker pickup, marked with whether the size threshold (vs the
		// deadline timer) triggered the flush.
		sized := int64(0)
		if len(batch) >= max {
			sized = 1
		}
		fStart := batch[0].enq
		fDur := now.Sub(fStart)
		reqs = reqs[:0]
		for k, j := range live {
			j.tr.Span(obs.KindFlush, fStart, fDur, int64(len(batch)), sized)
			// Engines match responses to requests by Tag, which must be
			// unique within the batch; a batch coalesces several requests,
			// so the job's position in the batch is the Tag.
			j.req.Tag = k
			reqs = append(reqs, j.req)
		}
		resp = eng.ExtendBatchInto(reqs, resp[:0])
		bi := eng.LastBatch()
		kEnd := bi.Start.Add(bi.Dur)
		for k, j := range live {
			r := resp[k]
			if j.tr.Sampled() {
				// The link stitches the request timeline to the device-layer
				// trace of the batch (obs.BatchTraceID); 0 for host engines.
				j.tr.SpanLink(obs.KindKernel, bi.Start, bi.Dur, sh.tier(reqs[k]), int64(len(live)), bi.Key)
				pass := int64(0)
				if !r.Rerun {
					pass = 1
				}
				j.tr.Span(obs.KindCheck, kEnd, 0, int64(r.Outcome), pass)
			}
			if r.RerunNs > 0 {
				// The batch's failed checks reran together right after the
				// kernel interval: like the kernel span, the one pooled
				// interval goes to every job that was in it.
				j.tr.Span(obs.KindRerun, kEnd, bi.Rerun, int64(r.Outcome), 1)
			}
			// A rerun without a proven outcome means the driver contained
			// a fault, exhausted retries, or served host-only behind an
			// open breaker: tail-flag the journey.
			if r.Rerun && r.Outcome == core.OutcomeUnknown {
				j.tr.Mark(obs.EvFault)
			}
			j.sh.settleDone()
			j.out.deliver(j.slot, wireResult(r))
		}
		s.met.Completed.Add(int64(len(live)))
	}
}

// mapWorker returns one mapping worker's batch processor for sh: a
// reentrant bwamem.Mapper session that maps the batch's live reads as one
// pooled batch (MapBatch: the reads' extensions share the extender's
// packed batches). Sampled jobs record the batch's interval as their
// kernel span and its four stage intervals — plan, extend left, extend
// right, resolve — as map_stage spans: timestamps taken once per batch.
// The worker follows the generation store: each batch acquires a refcounted handle on the current generation
// (held for the batch, so a concurrent reload cannot unmap the memory
// the batch is reading) and rebuilds its mapper session only when the
// generation actually changed. Old generations drain batch-by-batch —
// a reload storm never stalls or fails a single read.
func (s *Server) mapWorker(sh *shard) func([]mapJob) {
	var m *bwamem.Mapper
	store := s.cfg.RefStore
	var genID uint64
	live := make([]mapJob, 0, s.cfg.MapBatch.MaxBatch)
	reads := make([]bwamem.Read, 0, s.cfg.MapBatch.MaxBatch)
	var text []byte // one rendered CIGAR or SAM line at a time
	return func(batch []mapJob) {
		now := time.Now()
		g := store.Acquire()
		if g == nil {
			// The store closed under us (shutdown): resolve the batch as
			// expired so every pending completes.
			for _, j := range batch {
				expireJob(s, j)
			}
			return
		}
		defer g.Release()
		// A reload in flight right now, or a generation swap observed since
		// this worker's last batch, tail-flags the batch's requests as
		// overlapping an index reload.
		reloadOverlap := store.Reloading()
		if m == nil || g.ID() != genID {
			reloadOverlap = reloadOverlap || m != nil
			m = s.cfg.NewAligner(g.Ref(), g.Index()).NewMapper()
			genID = g.ID()
		}
		live = pickup(s, sh, batch, live[:0], now)
		if len(live) == 0 {
			return
		}
		reads = reads[:0]
		for _, j := range live {
			// The name outlives the request's buffer in the result and the
			// SAM record: this is its one copy.
			reads = append(reads, bwamem.Read{Name: string(j.req.name), Seq: j.req.seq, Qual: j.req.qual})
		}
		recs, als, bt := m.MapBatch(reads)
		stages := [...]time.Time{bt.Start, bt.Planned, bt.LeftDone, bt.RightDone, bt.End}
		for k, j := range live {
			rec, al := recs[k], als[k]
			if reloadOverlap {
				j.tr.Mark(obs.EvReloadOverlap)
			}
			// The batch's spans go to each request in it once: a request's
			// reads sit side by side in the batch and share its Ref.
			if j.tr.Sampled() && (k == 0 || live[k-1].tr != j.tr) {
				// The map kernel span links the index generation it computed
				// against (negated, so generation links can never collide with
				// the positive device batch keys the stitcher resolves), and one
				// timeline shows a request straddling a swap.
				j.tr.SpanLink(obs.KindKernel, bt.Start, bt.End.Sub(bt.Start), obs.TierUnknown, int64(len(live)), -int64(genID))
				for st := obs.MapStagePlan; st <= obs.MapStageResolve; st++ {
					j.tr.Span(obs.KindMapStage, stages[st], stages[st+1].Sub(stages[st]), int64(st), int64(len(live)))
				}
			}
			// One buffer, one rendering at a time: each is copied out before
			// the next overwrites it.
			text = al.Cigar.AppendTo(text[:0])
			cigar := string(text)
			text = rec.AppendTo(text[:0])
			j.sh.settleDone()
			j.out.deliver(j.slot, MapResult{
				Name:   rec.QName,
				Mapped: al.Mapped,
				RName:  rec.RName,
				Pos:    rec.Pos,
				Rev:    al.Rev,
				MapQ:   al.MapQ,
				Score:  al.Score,
				Cigar:  cigar,
				Sam:    string(text),
			})
		}
		s.met.Completed.Add(int64(len(live)))
	}
}
