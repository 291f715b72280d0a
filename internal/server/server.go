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
	// Extender drives /v1/extend and /v1/extend/stream. Required. When it
	// is a *core.SeedEx (or any extender whose sessions are
	// *core.Checker), batches run the full speculate-check-rerun workflow
	// and responses carry the rerun flag; other extenders run their plain
	// batch path.
	Extender align.Extender
	// Aligner, when non-nil, enables /v1/map (full read mapping).
	Aligner *bwamem.Aligner
	// RefStore, when non-nil, serves /v1/map from the crash-safe
	// generation store instead of a fixed Aligner: map workers follow
	// the store's current generation (mmap-backed, hot-reloadable via
	// POST /admin/reload or the store's own triggers), rebuilding their
	// mapping session when a reload publishes a new generation.
	// In-flight batches drain on the generation they acquired.
	RefStore *refstore.Store
	// NewAligner builds the mapping aligner over one generation's
	// reference and index (the embedder wires the extender, options and
	// shared stats sink). Required when RefStore is set.
	NewAligner func(ref *bwamem.Reference, ix *fmindex.Index) *bwamem.Aligner
	// MapOpts echoes the aligner options NewAligner applies, so the
	// health and metrics surfaces can report the mapping configuration
	// without a fixed aligner instance to inspect. Ignored when Aligner
	// is set.
	MapOpts bwamem.Options
	// MapStats, when non-nil, is the shared check-statistics sink the
	// RefStore aligners record into (so prefilter counters survive
	// generation swaps). Ignored when Aligner is set.
	MapStats *core.Stats
	// Shards splits the service into that many independent shard units —
	// each its own micro-batcher, worker pool, extender (see NewExtender)
	// and, for engine-backed extenders, circuit breaker — behind the
	// routing tier. Default 1, which preserves the unsharded pipeline
	// (same worker loop, same one-FlushInterval latency bound).
	Shards int
	// RoutePolicy names the routing policy for Shards > 1:
	// "least-loaded" (default; fewest in-flight jobs), "occupancy"
	// (prefer the shard about to flush a non-full batch), or "hash"
	// (consistent hashing by reference region). See RegisterRoutingPolicy
	// for custom policies. New panics on an unknown name — validate
	// user-supplied names against RoutingPolicies first.
	RoutePolicy string
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
	// Health, when non-nil, feeds the fault-tolerance status into /metrics
	// and /healthz (breaker state, fault/retry/degradation counters). It is
	// picked up automatically when Extender exposes a
	// `Health() faults.Health` method (the FPGA driver engine does).
	Health func() faults.Health
	// Trace, when non-nil, records pipeline spans (admission, queue wait,
	// batch flush, kernel tier, check outcome, host rerun) for sampled
	// requests and exports them at /debug/traces. A nil tracer costs the
	// job endpoints one pointer compare per instrumentation site. Tail
	// retention (obs.Config.Tail) additionally keeps the full journey of
	// every request that breaches its budget, fails, or crosses a steal,
	// reroute, rescue, reload overlap or fault.
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
	if c.RoutePolicy == "" {
		c.RoutePolicy = "least-loaded"
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
	cfg      Config
	met      *Metrics
	shards   []*shard
	router   *router
	stats    []*core.Stats // distinct check-statistics sources across shards
	trace    *obs.Tracer   // nil when tracing is disabled
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
// caller owns cfg.Extender / cfg.NewExtender's engines (and cfg.Aligner);
// the server owns everything it starts. New panics on an unknown
// cfg.RoutePolicy — check names from flags against RoutingPolicies.
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
	if s.cfg.Health == nil && cfg.NewExtender == nil {
		if h, ok := cfg.Extender.(interface{ Health() faults.Health }); ok {
			s.cfg.Health = h.Health
		}
	}
	// Steal groups link the per-shard batchers once all exist; with one
	// shard they stay nil and the worker loops match the unsharded server.
	var extGroup *stealGroup[extJob]
	var mapGroup *stealGroup[mapJob]
	if cfg.Shards > 1 {
		extGroup = &stealGroup[extJob]{}
		if cfg.Aligner != nil || cfg.RefStore != nil {
			mapGroup = &stealGroup[mapJob]{}
		}
	}
	seenStats := make(map[*core.Stats]bool)
	for i := 0; i < cfg.Shards; i++ {
		ext := cfg.Extender
		if cfg.NewExtender != nil {
			ext = cfg.NewExtender(i)
		}
		sh := &shard{id: i, extender: ext, sm: &shardMetrics{}}
		if se, ok := ext.(*core.SeedEx); ok {
			sh.stats = se.Stats
		} else if cs, ok := ext.(interface{ CheckStats() *core.Stats }); ok {
			// Device-backed extenders (the FPGA driver engine) expose their
			// check statistics behind this accessor.
			sh.stats = cs.CheckStats()
		}
		if sh.stats != nil && !seenStats[sh.stats] {
			seenStats[sh.stats] = true
			s.stats = append(s.stats, sh.stats)
		}
		if s.cfg.Health != nil {
			sh.health = s.cfg.Health
		} else if h, ok := ext.(interface{ Health() faults.Health }); ok {
			sh.health = h.Health
		}
		extWork := func() func([]extJob) { return s.extWorker(sh) }
		// Extension batching is shape-binned when the extender's scoring is
		// discoverable: jobs of like SWAR tier and length class coalesce into
		// the same micro-batch, so the packed kernels see dense lane groups
		// even under interleaved mixed-shape traffic (cross-batch scheduling,
		// paper §V-B).
		if sp, ok := ext.(interface{ KernelScoring() align.Scoring }); ok {
			sc := sp.KernelScoring()
			binOf := func(j extJob) int {
				return align.ShapeBin(len(j.req.Q), len(j.req.T), j.req.H0, sc)
			}
			sh.ext = newShardBinnedBatcher(cfg.Batch, s.met, sh.sm, extGroup, i, align.NumShapeBins, binOf, extWork)
		} else {
			sh.ext = newShardBatcher(cfg.Batch, s.met, sh.sm, extGroup, i, extWork)
		}
		if cfg.Aligner != nil || cfg.RefStore != nil {
			sh.maps = newShardBatcher(cfg.MapBatch, s.met, sh.sm, mapGroup, i, func() func([]mapJob) { return s.mapWorker(sh) })
		}
		s.shards = append(s.shards, sh)
	}
	if extGroup != nil {
		exts := make([]*batcher[extJob], len(s.shards))
		for i, sh := range s.shards {
			exts[i] = sh.ext
		}
		extGroup.set(exts)
	}
	if mapGroup != nil {
		maps := make([]*batcher[mapJob], len(s.shards))
		for i, sh := range s.shards {
			maps[i] = sh.maps
		}
		mapGroup.set(maps)
	}
	// The mapping aligner's stats (prefilter counters) merge into the same
	// snapshot the extender sources feed, unless it shares one of theirs.
	if cfg.Aligner != nil && cfg.Aligner.Stats != nil && !seenStats[cfg.Aligner.Stats] {
		seenStats[cfg.Aligner.Stats] = true
		s.stats = append(s.stats, cfg.Aligner.Stats)
	}
	if cfg.Aligner == nil && cfg.MapStats != nil && !seenStats[cfg.MapStats] {
		seenStats[cfg.MapStats] = true
		s.stats = append(s.stats, cfg.MapStats)
	}
	rt, err := newRouter(s.shards, cfg.RoutePolicy)
	if err != nil {
		panic(err)
	}
	s.router = rt
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
//	POST /v1/map            JSON batch of reads -> SAM records (with -ref)
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

// extQueue sums queue depth and capacity across the shards' extension
// batchers — the aggregate the pre-sharding /metrics reported.
func (s *Server) extQueue() (depth, capacity int) {
	for _, sh := range s.shards {
		depth += sh.ext.QueueDepth()
		capacity += sh.ext.QueueCap()
	}
	return depth, capacity
}

// mapQueue mirrors extQueue for the mapping batchers.
func (s *Server) mapQueue() (depth, capacity int) {
	for _, sh := range s.shards {
		if sh.maps != nil {
			depth += sh.maps.QueueDepth()
			capacity += sh.maps.QueueCap()
		}
	}
	return depth, capacity
}

// mapEnabled reports whether the mapping pipeline exists (Config.Aligner
// or Config.RefStore was set).
func (s *Server) mapEnabled() bool { return s.cfg.Aligner != nil || s.cfg.RefStore != nil }

// mapOpts returns the mapping options the pipeline runs under: the
// fixed aligner's when one is set, the configured echo for the
// generation-store path.
func (s *Server) mapOpts() bwamem.Options {
	if s.cfg.Aligner != nil {
		return s.cfg.Aligner.Opts
	}
	return s.cfg.MapOpts
}

// prefilterOn reports whether the mapping pipeline screens chains with
// the pre-alignment filter tier.
func (s *Server) prefilterOn() bool {
	return s.mapEnabled() && s.mapOpts().Prefilter
}

// prefilterThreshold returns the active edit-threshold fraction (0 when
// the tier is off).
func (s *Server) prefilterThreshold() float64 {
	if !s.prefilterOn() {
		return 0
	}
	if th := s.mapOpts().PrefilterThreshold; th > 0 {
		return th
	}
	return bwamem.DefaultPrefilterThreshold
}

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
		out.PrefilterPass += snap.PrefilterPass
		out.PrefilterReject += snap.PrefilterReject
		out.PrefilterRescued += snap.PrefilterRescued
		out.PrefilterFalsePass += snap.PrefilterFalsePass
	}
	return out, true
}

// Registry exposes the Prometheus collector registry, so embedders can
// register additional collectors before the first scrape.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the span tracer (nil when tracing is disabled).
func (s *Server) Tracer() *obs.Tracer { return s.trace }

// pending collects one request's extension results as its jobs complete,
// possibly across several device batches. done closes when the last job
// lands.
type pending struct {
	resp      []core.Response
	remaining atomic.Int32
	expired   atomic.Int32
	done      chan struct{}
}

func newPending(n int) *pending {
	p := &pending{resp: make([]core.Response, n), done: make(chan struct{})}
	p.remaining.Store(int32(n))
	return p
}

func (p *pending) deliver(i int, r core.Response) {
	p.resp[i] = r
	if p.remaining.Add(-1) == 0 {
		close(p.done)
	}
}

// expire completes slot i without computing it: the job's deadline passed
// (or its client left) before a worker reached it. The zero-valued result
// must never be served — handlers check expired after done closes.
func (p *pending) expire(i int) {
	p.expired.Add(1)
	p.deliver(i, core.Response{Tag: i})
}

// abandon discounts the never-submitted tail of a partially admitted
// request (total jobs, only the first submitted entered the queue). If
// the adjustment itself zeroes the counter — every submitted job was
// delivered before it landed — abandon closes done, because no deliver
// remains to do so. The close cannot race deliver: the counter crosses
// zero exactly once across all atomic adds, and whichever add observes
// zero owns the close.
func (p *pending) abandon(submitted, total int) {
	if p.remaining.Add(int32(submitted-total)) == 0 {
		close(p.done)
	}
}

// extJob is one extension queued for micro-batching. sh is the shard
// that admitted the job (set by the router on submit): its accounting
// follows the job even when a peer's worker steals the batch.
type extJob struct {
	ctx context.Context
	req core.Request // Tag carries the job's slot in its pending
	out *pending
	sh  *shard
	tr  obs.Ref // sampled trace handle (zero: not sampled)
	enq time.Time
}

// mapJob is one read queued for the mapping pipeline.
type mapJob struct {
	ctx  context.Context
	name string
	seq  []byte // base codes
	qual []byte // ASCII qualities or nil
	out  *mapPending
	sh   *shard
	tr   obs.Ref
	i    int
	enq  time.Time
}

// mapPending mirrors pending for mapping results.
type mapPending struct {
	res       []MapResult
	remaining atomic.Int32
	expired   atomic.Int32
	done      chan struct{}
}

func newMapPending(n int) *mapPending {
	p := &mapPending{res: make([]MapResult, n), done: make(chan struct{})}
	p.remaining.Store(int32(n))
	return p
}

func (p *mapPending) deliver(i int, r MapResult) {
	p.res[i] = r
	if p.remaining.Add(-1) == 0 {
		close(p.done)
	}
}

// expire and abandon mirror pending; see there for the invariants.
func (p *mapPending) expire(i int, name string) {
	p.expired.Add(1)
	p.deliver(i, MapResult{Name: name})
}

func (p *mapPending) abandon(submitted, total int) {
	if p.remaining.Add(int32(submitted-total)) == 0 {
		close(p.done)
	}
}

// batchResponder is the full-verdict batch path: responses carry rerun
// flags and check outcomes. *core.Checker and the FPGA driver's engine
// sessions both duck-type it.
type batchResponder interface {
	ExtendBatchInto(reqs []core.Request, dst []core.Response) []core.Response
}

// extWorker returns one extension worker's batch processor for sh. The
// worker owns a per-worker session of the shard's extender (its scratch
// memory lives as long as the worker), so a batch runs allocation-free
// through the packed kernels: the speculate-check-rerun workflow for
// checked engines (software checker or device driver), the plain batch
// path otherwise. Stolen peer batches run through this worker's session
// too — the kernels are deterministic, so where a batch runs never shows
// in its results — while each job's admission accounting stays with the
// shard that admitted it (j.sh). With tracing enabled, sampled jobs
// record queue-wait, flush, kernel, check and rerun spans; with it
// disabled every span site is a single nil compare.
func (s *Server) extWorker(sh *shard) func([]extJob) {
	ext := sh.extender
	if se, ok := ext.(align.SessionExtender); ok {
		ext = se.Session()
	}
	chk, _ := ext.(*core.Checker)
	br, _ := ext.(batchResponder)
	// Device-backed sessions expose the batch key of their last device
	// round-trip; kernel spans carry it as a link so a request timeline
	// stitches to the device-layer trace (obs.BatchTraceID).
	keyer, _ := ext.(interface{ LastBatchKey() int64 })
	max := s.cfg.Batch.MaxBatch
	live := make([]extJob, 0, max)
	reqs := make([]core.Request, 0, max)
	jobs := make([]align.Job, 0, max)
	resp := make([]core.Response, max)
	results := make([]align.ExtendResult, max)
	return func(batch []extJob) {
		now := time.Now()
		live, reqs = live[:0], reqs[:0]
		for _, j := range batch {
			wait := now.Sub(j.enq)
			s.met.QueueWait.observe(wait.Nanoseconds())
			j.sh.sm.queueWait.observe(wait.Nanoseconds())
			j.tr.Span(obs.KindQueueWait, j.enq, wait, int64(len(batch)), 0)
			if j.ctx.Err() != nil {
				// The client is gone (deadline or disconnect): skip the
				// compute, but still complete the job so the request's
				// pending resolves.
				s.met.Expired.Add(1)
				j.sh.settleExpired()
				j.out.expire(j.req.Tag)
				continue
			}
			live = append(live, j)
			reqs = append(reqs, j.req)
		}
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
		for _, j := range live {
			j.tr.Span(obs.KindFlush, fStart, fDur, int64(len(batch)), sized)
		}
		// A batch whose jobs were admitted by another shard arrived here by
		// work stealing: flag the event and record where the batch really
		// ran (v1 = victim shard, v2 = thief shard).
		if live[0].sh.id != sh.id {
			for _, j := range live {
				j.tr.Mark(obs.EvSteal)
				j.tr.Span(obs.KindSteal, now, 0, int64(j.sh.id), int64(sh.id))
			}
		}
		switch {
		case chk != nil:
			// Software checker: split the workflow at its phase boundaries
			// (packed speculate+check, then per-job stats/rerun policy,
			// replicating ExtendBatchInto) so kernel, check and rerun each
			// get their own span.
			k0 := time.Now()
			var reps []core.Report
			resp, reps = chk.CheckBatch(reqs, resp[:0])
			kDur := time.Since(k0)
			kEnd := k0.Add(kDur)
			for k, j := range live {
				rep := reps[k]
				if chk.Stats != nil {
					chk.Stats.Record(rep)
				}
				if j.tr.Sampled() {
					tier := align.TierOf(len(reqs[k].Q), len(reqs[k].T), reqs[k].H0, chk.Config.Scoring)
					j.tr.Span(obs.KindKernel, k0, kDur, int64(tier), int64(len(live)))
					pass := int64(0)
					if rep.Pass {
						pass = 1
					}
					j.tr.Span(obs.KindCheck, kEnd, 0, int64(rep.Outcome), pass)
				}
				r := resp[k]
				if r.Rerun {
					r0 := time.Now()
					r.Res = chk.Rerun(reqs[k].Q, reqs[k].T, reqs[k].H0)
					j.tr.Span(obs.KindRerun, r0, time.Since(r0), int64(rep.Outcome), 1)
				}
				j.sh.settleDone()
				j.out.deliver(j.req.Tag, r)
			}
		case br != nil:
			// Device-backed engines run the whole workflow (device compute,
			// integrity checks, overlapped host reruns) behind one call; the
			// driver records its own device/rerun spans under the batch key.
			// The driver matches device responses to requests by Tag, which
			// must be unique within the batch; a job's own Tag is unique only
			// within its request, and a batch coalesces several requests.
			for k := range reqs {
				reqs[k].Tag = k
			}
			k0 := time.Now()
			resp = br.ExtendBatchInto(reqs, resp[:0])
			kDur := time.Since(k0)
			kEnd := k0.Add(kDur)
			var bkey int64
			if keyer != nil {
				bkey = keyer.LastBatchKey()
			}
			for k, j := range live {
				r := resp[k]
				if j.tr.Sampled() {
					j.tr.SpanLink(obs.KindKernel, k0, kDur, obs.TierUnknown, int64(len(live)), bkey)
					pass := int64(0)
					if !r.Rerun {
						pass = 1
					}
					j.tr.Span(obs.KindCheck, kEnd, 0, int64(r.Outcome), pass)
				}
				// A rerun without a proven outcome means the driver contained
				// a fault, exhausted retries, or served host-only behind an
				// open breaker: tail-flag the journey.
				if r.Rerun && r.Outcome == core.OutcomeUnknown {
					j.tr.Mark(obs.EvFault)
				}
				r.Tag = j.req.Tag
				j.sh.settleDone()
				j.out.deliver(j.req.Tag, r)
			}
		default:
			jobs = jobs[:0]
			for _, r := range reqs {
				jobs = append(jobs, align.Job{Q: r.Q, T: r.T, H0: r.H0})
			}
			k0 := time.Now()
			results = extendJobsVia(ext, jobs, results[:0])
			kDur := time.Since(k0)
			for k, j := range live {
				j.tr.Span(obs.KindKernel, k0, kDur, obs.TierUnknown, int64(len(live)))
				j.sh.settleDone()
				j.out.deliver(j.req.Tag, core.Response{Tag: j.req.Tag, Res: results[k], Outcome: core.OutcomeUnknown})
			}
		}
		s.met.Completed.Add(int64(len(live)))
	}
}

// extendJobsVia dispatches through the extender's batch path when it has
// one, degrading to a scalar loop otherwise.
func extendJobsVia(ext align.Extender, jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	if be, ok := ext.(align.BatchExtender); ok {
		return be.ExtendJobs(jobs, dst)
	}
	if cap(dst) < len(jobs) {
		dst = make([]align.ExtendResult, len(jobs))
	}
	dst = dst[:len(jobs)]
	for i := range jobs {
		dst[i] = ext.Extend(jobs[i].Q, jobs[i].T, jobs[i].H0)
	}
	return dst
}

// mapWorker returns one mapping worker's batch processor for sh: a
// reentrant bwamem.Mapper session applied to each read of the batch (the
// extensions inside each read still run through the extender's packed
// batch path).
// With a RefStore configured, the worker follows the generation store:
// each batch acquires a refcounted handle on the current generation
// (held for the batch, so a concurrent reload cannot unmap the memory
// the batch is reading) and rebuilds its mapper session only when the
// generation actually changed. Old generations drain batch-by-batch —
// a reload storm never stalls or fails a single read.
func (s *Server) mapWorker(sh *shard) func([]mapJob) {
	var m *bwamem.Mapper
	store := s.cfg.RefStore
	if store == nil {
		m = s.cfg.Aligner.NewMapper()
	}
	var genID uint64
	return func(batch []mapJob) {
		now := time.Now()
		reloadOverlap := false
		if store != nil {
			g := store.Acquire()
			if g == nil {
				// The store closed under us (shutdown): resolve the batch
				// as expired so every pending completes.
				for _, j := range batch {
					s.met.Expired.Add(1)
					j.sh.settleExpired()
					j.out.expire(j.i, j.name)
				}
				return
			}
			defer g.Release()
			// A reload in flight right now, or a generation swap observed
			// since this worker's last batch, tail-flags the batch's
			// requests as overlapping an index reload.
			reloadOverlap = store.Reloading()
			if m == nil || g.ID() != genID {
				reloadOverlap = reloadOverlap || m != nil
				m = s.cfg.NewAligner(g.Ref(), g.Index()).NewMapper()
				genID = g.ID()
			}
		}
		if len(batch) > 0 && batch[0].sh.id != sh.id {
			for _, j := range batch {
				j.tr.Mark(obs.EvSteal)
				j.tr.Span(obs.KindSteal, now, 0, int64(j.sh.id), int64(sh.id))
			}
		}
		for _, j := range batch {
			if reloadOverlap {
				j.tr.Mark(obs.EvReloadOverlap)
			}
			wait := now.Sub(j.enq)
			s.met.QueueWait.observe(wait.Nanoseconds())
			j.sh.sm.queueWait.observe(wait.Nanoseconds())
			j.tr.Span(obs.KindQueueWait, j.enq, wait, int64(len(batch)), 0)
			if j.ctx.Err() != nil {
				s.met.Expired.Add(1)
				j.sh.settleExpired()
				j.out.expire(j.i, j.name)
				continue
			}
			k0 := time.Now()
			rec, al := m.Map(j.name, j.seq, j.qual)
			kDur := time.Since(k0)
			// The map kernel span links the index generation it computed
			// against (negated, so generation links can never collide with
			// the positive device batch keys the stitcher resolves), and one
			// timeline shows a request straddling a swap.
			j.tr.SpanLink(obs.KindKernel, k0, kDur, obs.TierUnknown, 1, -int64(genID))
			if al.PrefilterPass+al.PrefilterReject > 0 {
				j.tr.Span(obs.KindPrefilter, k0.Add(kDur), 0,
					int64(al.PrefilterPass), int64(al.PrefilterReject))
			}
			if al.RescueRounds > 0 {
				j.tr.Mark(obs.EvRescue)
				j.tr.Span(obs.KindRescue, k0.Add(kDur), 0,
					int64(al.PrefilterRescued), int64(al.RescueRounds))
			}
			j.sh.settleDone()
			j.out.deliver(j.i, MapResult{
				Name:   j.name,
				Mapped: al.Mapped,
				RName:  rec.RName,
				Pos:    rec.Pos,
				Rev:    al.Rev,
				MapQ:   al.MapQ,
				Score:  al.Score,
				Cigar:  al.Cigar.String(),
				Sam:    rec.String(),
			})
			s.met.Completed.Add(1)
		}
	}
}
