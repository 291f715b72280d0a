package server

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/obs"
	"seedex/internal/refstore"
)

// histBuckets is the bucket count of the power-of-two histograms: bucket i
// holds values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i). 40 buckets
// cover one nanosecond to ~9 minutes of latency, or any practical batch
// occupancy, without configuration.
const histBuckets = 40

// hist is a lock-free power-of-two histogram: recording is one atomic add,
// reading is a sweep. It backs the latency, queue-wait and batch-occupancy
// metrics.
type hist struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// observe counts one value (values < 1 clamp into the first bucket).
func (h *hist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// histSnapshot is a plain copy of one histogram for reporting.
type histSnapshot struct {
	Counts [histBuckets]int64
	Sum    int64
	N      int64
}

func (h *hist) snapshot() histSnapshot {
	var out histSnapshot
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	out.Sum = h.sum.Load()
	out.N = h.n.Load()
	return out
}

// Mean returns the average observed value.
func (s histSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.N)
}

// Quantile estimates the q-quantile (0 < q <= 1) by interpolating within
// the power-of-two bucket holding the q-th observation. The estimate is
// exact to within a factor of two — ample for p50/p99 service latencies.
//
// Edge contracts: an empty histogram reports 0 for every quantile;
// bucket 0 holds only exact zeros (clamped negatives included) and
// reports 0 rather than interpolating into (0, 1]; and a snapshot torn
// between counts and n (the fields are read non-atomically under live
// traffic, so rank can exceed the summed counts) clamps to the upper
// bound of the last non-empty bucket instead of returning the raw Sum —
// a value on a different axis entirely.
func (s histSnapshot) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	rank := q * float64(s.N)
	var seen float64
	last := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		last = hi
		if seen+float64(c) >= rank {
			frac := (rank - seen) / float64(c)
			return lo + frac*(hi-lo)
		}
		seen += float64(c)
	}
	return last
}

// bucketBounds is the one power-of-two bucket rule: bucket 0 is exactly
// {0}, bucket i>0 covers [2^(i-1), 2^i - 1]. Quantiles, the JSON buckets,
// the Prometheus le bounds and the latency objective all read it.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return float64(int64(1) << (i - 1)), float64(int64(1)<<i - 1)
}

// BucketCount is one non-empty histogram bucket in the metrics JSON.
type BucketCount struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets with their value bounds, for the
// metrics JSON.
func (s histSnapshot) Buckets() []BucketCount {
	var out []BucketCount
	for i, c := range s.Counts {
		if c != 0 {
			lo, hi := bucketBounds(i)
			out = append(out, BucketCount{Lo: int64(lo), Hi: int64(hi), Count: c})
		}
	}
	return out
}

// promSeries renders the histogram as the samples of a Prometheus
// histogram: cumulative buckets with the exact inclusive upper bounds
// le = hi·scale, trimmed to the non-empty range, then the +Inf bucket,
// the sum (scaled) and the count.
func (s histSnapshot) promSeries(scale float64) []series {
	last := -1
	for i, c := range s.Counts {
		if c != 0 {
			last = i
		}
	}
	var out []series
	var cum int64
	for i := 0; i <= last; i++ {
		if cum += s.Counts[i]; cum != 0 {
			_, hi := bucketBounds(i)
			out = append(out, series{suffix: "_bucket", labels: []string{"le", formatVal(hi * scale)}, v: float64(cum)})
		}
	}
	return append(out, series{suffix: "_bucket", labels: []string{"le", "+Inf"}, v: float64(s.N)},
		series{suffix: "_sum", v: float64(s.Sum) * scale}, series{suffix: "_count", v: float64(s.N)})
}

// Metrics holds the server's counters. Every field is an independent
// atomic, so the handlers, batchers and workers never share a lock with
// the /metrics scraper.
type Metrics struct {
	Requests atomic.Int64 // HTTP requests served on the job endpoints
	// Request outcomes, counted once per request from its final status
	// (request.done).
	BadInput atomic.Int64 // answered 400 or 413
	Rejected atomic.Int64 // answered 429: the admission queue was full
	Draining atomic.Int64 // answered 503: the server is draining
	Failed   atomic.Int64 // answered 429/500/503/504 (SLO availability)

	Latency hist // ns from request start to response ready

	// Wire codec busy time on the batch endpoints: scanning a body that was
	// read whole, rendering a reply before it is written.
	DecodeNs      atomic.Int64
	EncodeNs      atomic.Int64
	CodecRequests atomic.Int64 // bodies scanned

	// Job-level counters, each job and batch recorded once: admissions and
	// batches by the batchers, completions and expiries by the workers.
	jobs      [numJobCounts]atomic.Int64
	occupancy hist // jobs per dispatched batch
	queueWait hist // ns from admission to worker pickup
}

// jobCount indexes the job-level counters.
type jobCount int

const (
	nAccepted  jobCount = iota // jobs admitted to a batching queue
	nCompleted                 // jobs computed
	nExpired                   // admitted jobs that expired before compute
	nBatches                   // batches the collectors dispatched
	numJobCounts
)

// scrape is every live value the metric rows read, loaded once per
// /metrics request, flight dump or shutdown summary, so the two formats
// agree.
type scrape struct {
	s      *Server
	uptime float64

	requests, badInput, rejected, draining, failed int64
	decodeNs, encodeNs, codecRequests              int64
	latency                                        histSnapshot

	jobs                 [numJobCounts]int64
	occupancy, queueWait histSnapshot
	extDepth, extCap     int
	mapDepth, mapCap     int
	checks               *core.StatsSnapshot // the engine's, if it is checked
	kernel               align.KernelTelemetry
	index                *refstore.Status
	trace                *obs.Stats
	slo                  obs.SLOSnapshot
}

func (s *Server) scrape() *scrape {
	m := s.met
	c := &scrape{
		s: s, uptime: time.Since(s.started).Seconds(),
		requests: m.Requests.Load(), badInput: m.BadInput.Load(), rejected: m.Rejected.Load(),
		draining: m.Draining.Load(), failed: m.Failed.Load(),
		decodeNs: m.DecodeNs.Load(), encodeNs: m.EncodeNs.Load(), codecRequests: m.CodecRequests.Load(),
		latency:   m.Latency.snapshot(),
		occupancy: m.occupancy.snapshot(), queueWait: m.queueWait.snapshot(),
		extDepth: s.ext.QueueDepth(), extCap: s.ext.QueueCap(),
		kernel: align.KernelSnapshot(),
		slo:    s.slo.Snapshot(),
	}
	for i := range c.jobs {
		c.jobs[i] = m.jobs[i].Load()
	}
	if s.maps != nil {
		c.mapDepth, c.mapCap = s.maps.QueueDepth(), s.maps.QueueCap()
	}
	if s.stats != nil {
		st := s.stats.Snapshot()
		c.checks = &st
	}
	if s.cfg.RefStore != nil {
		st := s.cfg.RefStore.Status()
		c.index = &st
	}
	if s.trace != nil {
		ts := s.trace.TraceStats()
		c.trace = &ts
	}
	return c
}

// row declares one exported metric, once: its Prometheus family and the
// JSON key it fills. Exactly one of v and series is set.
type row struct {
	name, typ, help string // Prometheus family; name "" renders JSON only
	key             string // JSON key path ("" renders Prometheus only)
	// scale converts the value read (in JSON units) to the Prometheus
	// unit; 0 means 1.
	scale float64
	// on, when set, gates the whole family on the server's configuration.
	on func(*scrape) bool

	v      func(*scrape) float64  // one value
	series func(*scrape) []series // labelled: each series names its own JSON key
}

// series is one sample of a row.
type series struct {
	suffix string   // sample-name suffix of a histogram's samples (_bucket, _sum, _count)
	labels []string // alternating key, value
	v      float64
	key    string // JSON key path this series fills ("" for none)
}

const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// samples lists a row's series on this scrape (none when its
// configuration gate is off).
func (r *row) samples(c *scrape) []series {
	switch {
	case r.on != nil && !r.on(c):
		return nil
	case r.v != nil:
		return []series{{v: r.v(c), key: r.key}}
	}
	return r.series(c)
}

// total and checkCount read one counter: a job counter, a check
// statistic.
func total(i jobCount) func(*scrape) float64 {
	return func(c *scrape) float64 { return float64(c.jobs[i]) }
}

func checkCount(f func(*core.StatsSnapshot) int64) func(*scrape) float64 {
	return func(c *scrape) float64 { return float64(f(c.checks)) }
}

// quantiles is the p50/p90/p99 series of one histogram, in JSON units
// (value × scale), filling the JSON keys prefix_p50suffix and so on.
func quantiles(h func(*scrape) histSnapshot, scale float64, prefix, suffix string) func(*scrape) []series {
	return func(c *scrape) []series {
		s, out := h(c), []series(nil)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			out = append(out, series{labels: []string{"quantile", strconv.FormatFloat(q, 'g', -1, 64)},
				v: s.Quantile(q) * scale, key: fmt.Sprintf("%s_p%.0f%s", prefix, q*100, suffix)})
		}
		return out
	}
}

// perQueue labels one value of the extension queue and, with /v1/map, the
// mapping queue.
func perQueue(key, mapKey string, f func(c *scrape) (ext, mp int)) func(*scrape) []series {
	return func(c *scrape) []series {
		ext, mp := f(c)
		out := []series{{labels: []string{"queue", "extend"}, v: float64(ext), key: key}}
		if c.s.mapEnabled() {
			out = append(out, series{labels: []string{"queue", "map"}, v: float64(mp), key: mapKey})
		}
		return out
	}
}

// perTier is a kernel family labelled by tier; the scalar tier has no
// lanes, groups or demotions, so skipScalar leaves its dead series out.
func perTier(skipScalar bool, f func(k *align.KernelTelemetry, tier int) float64) func(*scrape) []series {
	return func(c *scrape) []series {
		var out []series
		for tier := 0; tier < align.NumTiers; tier++ {
			if !(skipScalar && tier == align.TierScalar) {
				out = append(out, one(f(&c.kernel, tier), "tier", align.TierName(tier))...)
			}
		}
		return out
	}
}

// perObjective is an SLO family labelled by objective.
func perObjective(f func(o *obs.ObjectiveStatus) []series) func(*scrape) []series {
	return func(c *scrape) []series {
		var out []series
		for i, o := range c.slo.Objectives {
			out = append(out, prefixed("objective", o.Name, f(&c.slo.Objectives[i]))...)
		}
		return out
	}
}

// prefixed puts one label in front of each series' own.
func prefixed(key, val string, xs []series) []series {
	for i := range xs {
		xs[i].labels = append([]string{key, val}, xs[i].labels...)
	}
	return xs
}

func one(v float64, labels ...string) []series { return []series{{labels: labels, v: v}} }

// oneHot is a state family: one series per state, exactly the current one 1.
func oneHot(key string, states []string, cur string) []series {
	var out []series
	for _, st := range states {
		out = append(out, one(boolGauge(st == cur), key, st)...)
	}
	return out
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func hasChecks(c *scrape) bool { return c.checks != nil }
func hasIndex(c *scrape) bool  { return c.index != nil }
func hasTrace(c *scrape) bool  { return c.trace != nil }
func hasTail(c *scrape) bool   { return c.trace != nil && c.trace.TailEnabled }

// metricRows is the /metrics declaration: every exported metric, once, in
// exposition order. ?format=prometheus, the JSON document and the flight
// recorder's metrics.json all render from it.
var metricRows = []row{
	// Requests and their outcomes.
	{name: "seedex_requests_total", typ: counter, help: "HTTP requests served on the job endpoints.", key: "requests", v: func(c *scrape) float64 { return float64(c.requests) }},
	{name: "seedex_requests_bad_input_total", typ: counter, help: "Requests refused with 400 or 413.", key: "requests_bad_input", v: func(c *scrape) float64 { return float64(c.badInput) }},
	{name: "seedex_requests_failed_total", typ: counter, help: "Requests answered 429/500/503/504 (burns the availability budget).", key: "requests_failed", v: func(c *scrape) float64 { return float64(c.failed) }},
	{name: "seedex_jobs_rejected_total", typ: counter, help: "Requests refused with 429 (admission queue full).", key: "jobs_rejected", v: func(c *scrape) float64 { return float64(c.rejected) }},
	{name: "seedex_jobs_rejected_draining_total", typ: counter, help: "Requests refused with 503 (draining).", key: "jobs_rejected_draining", v: func(c *scrape) float64 { return float64(c.draining) }},

	// Jobs and batches.
	{name: "seedex_jobs_accepted_total", typ: counter, help: "Jobs admitted to the batching queue.", key: "jobs_accepted", v: total(nAccepted)},
	{name: "seedex_jobs_expired_total", typ: counter, help: "Jobs whose deadline passed before compute.", key: "jobs_expired", v: total(nExpired)},
	{name: "seedex_jobs_completed_total", typ: counter, help: "Jobs fully computed.", key: "jobs_completed", v: total(nCompleted)},
	{name: "seedex_batches_total", typ: counter, help: "Micro-batches dispatched to workers.", key: "batches", v: total(nBatches)},
	{key: "batch_occupancy_mean", v: func(c *scrape) float64 { return c.occupancy.Mean() }},
	{name: "seedex_queue_depth", typ: gauge, help: "Jobs waiting in the admission queue.", series: perQueue("queue_depth", "map_queue.depth", func(c *scrape) (int, int) { return c.extDepth, c.mapDepth })},
	{name: "seedex_queue_cap", typ: gauge, help: "Admission queue capacity.", series: perQueue("queue_cap", "map_queue.cap", func(c *scrape) (int, int) { return c.extCap, c.mapCap })},

	// Histograms, with interpolated quantile estimates alongside. The pow-2
	// nanosecond buckets convert to exact-le second buckets.
	{name: "seedex_request_latency_seconds", typ: histogram, help: "Request service time (admission to response ready).", series: func(c *scrape) []series { return c.latency.promSeries(1e-9) }},
	{name: "seedex_request_latency_quantile_seconds", typ: gauge, help: "Interpolated request latency quantiles.", scale: 1e-6, series: quantiles(func(c *scrape) histSnapshot { return c.latency }, 1e-3, "latency", "_us")},
	{key: "latency_mean_us", v: func(c *scrape) float64 { return c.latency.Mean() / 1e3 }},
	{name: "seedex_codec_seconds_total", typ: counter, help: "Wire codec busy time on the batch endpoints.", scale: 1e-9, series: func(c *scrape) []series {
		return []series{{labels: []string{"stage", "decode"}, v: float64(c.decodeNs), key: "decode_ns"}, {labels: []string{"stage", "encode"}, v: float64(c.encodeNs), key: "encode_ns"}}
	}},
	{name: "seedex_codec_requests_total", typ: counter, help: "Request bodies scanned by the wire codec.", key: "codec_requests", v: func(c *scrape) float64 { return float64(c.codecRequests) }},
	{name: "seedex_queue_wait_seconds", typ: histogram, help: "Per-job wait from admission to batch dispatch.", series: func(c *scrape) []series { return c.queueWait.promSeries(1e-9) }},
	{name: "seedex_queue_wait_quantile_seconds", typ: gauge, help: "Interpolated queue-wait quantiles.", scale: 1e-6, series: quantiles(func(c *scrape) histSnapshot { return c.queueWait }, 1e-3, "queue_wait", "_us")},
	{name: "seedex_batch_occupancy", typ: histogram, help: "Jobs per dispatched micro-batch.", series: func(c *scrape) []series { return c.occupancy.promSeries(1) }},
	{name: "seedex_batch_occupancy_quantile", typ: gauge, help: "Interpolated batch-occupancy quantiles.", series: quantiles(func(c *scrape) histSnapshot { return c.occupancy }, 1, "batch_occupancy", "")},

	// Check workflow outcomes.
	{name: "seedex_check_total", typ: counter, help: "Extensions through the check workflow.", key: "checks.total", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.Total })},
	{name: "seedex_check_passed_total", typ: counter, help: "Extensions proven optimal.", key: "checks.passed", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.Passed })},
	{name: "seedex_check_reruns_total", typ: counter, help: "Extensions rerun on the host.", key: "checks.reruns", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.Reruns })},
	{name: "seedex_check_threshold_only_total", typ: counter, help: "Extensions proven optimal by thresholding alone.", key: "checks.threshold_only", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.ThresholdOnly })},
	{name: "seedex_check_outcome_total", typ: counter, help: "Check outcomes by verdict.", on: hasChecks, series: func(c *scrape) []series {
		var out []series
		for o := range c.checks.Outcomes {
			x := series{labels: []string{"outcome", core.Outcome(o).String()}, v: float64(c.checks.Outcomes[o])}
			if x.v > 0 { // the JSON map names the outcomes seen
				x.key = "checks.outcomes." + core.Outcome(o).String()
			}
			out = append(out, x)
		}
		return out
	}},

	// Kernel-level telemetry: tier mix, demotions, lane occupancy and sweep
	// throughput of the packed batch kernels.
	{name: "seedex_kernel_native", typ: gauge, help: "Instruction set of the native packed tier on this host, chosen by CPUID at start-up (exactly one series is 1).", series: func(c *scrape) []series { return oneHot("isa", []string{"avx2", "none"}, align.NativeISA()) }},
	{name: "seedex_kernel_chunks_total", typ: counter, help: "Batch-kernel invocations (chunks).", v: func(c *scrape) float64 { return float64(c.kernel.Batches) }},
	{name: "seedex_kernel_jobs_total", typ: counter, help: "Jobs per assigned kernel tier.", series: perTier(false, func(k *align.KernelTelemetry, t int) float64 { return float64(k.Jobs[t]) })},
	{name: "seedex_kernel_degenerate_total", typ: counter, help: "Jobs that bypassed the tier ladder.", v: func(c *scrape) float64 { return float64(c.kernel.Degenerate) }},
	{name: "seedex_kernel_demoted_total", typ: counter, help: "SWAR-assigned jobs demoted to scalar by envelope divergence, by assigned tier (the native tier carries its whole group).", series: perTier(true, func(k *align.KernelTelemetry, t int) float64 { return float64(k.Demoted[t]) })},
	{name: "seedex_kernel_solo_total", typ: counter, help: "Jobs run scalar because their group filled one lane.", v: func(c *scrape) float64 { return float64(c.kernel.Solo) }},
	{name: "seedex_kernel_groups_total", typ: counter, help: "Packed lane groups executed, by kernel tier.", series: perTier(true, func(k *align.KernelTelemetry, t int) float64 { return float64(k.Groups[t]) })},
	{name: "seedex_kernel_lanes_total", typ: counter, help: "Lanes filled across packed groups, by kernel tier.", series: perTier(true, func(k *align.KernelTelemetry, t int) float64 { return float64(k.Lanes[t]) })},
	{name: "seedex_kernel_cells_total", typ: counter, help: "DP cells swept by the batch kernels.", v: func(c *scrape) float64 { return float64(c.kernel.Cells) }},
	{name: "seedex_kernel_lane_occupancy", typ: gauge, help: "Mean lanes filled per packed group.", v: func(c *scrape) float64 { return c.kernel.LaneOccupancy() }},
	{name: "seedex_kernel_lane_utilization", typ: gauge, help: "Filled lanes over lane capacity across packed groups.", v: func(c *scrape) float64 { return c.kernel.LaneUtilization() }},
	{name: "seedex_kernel_tier_lane_utilization", typ: gauge, help: "Per-tier filled lanes over lane capacity.", series: perTier(true, func(k *align.KernelTelemetry, t int) float64 { return k.TierLaneUtilization(t) })},
	{name: "seedex_kernel_cells_per_second", typ: gauge, help: "Mean DP cell throughput since start.", on: func(c *scrape) bool { return c.uptime > 0 }, v: func(c *scrape) float64 { return float64(c.kernel.Cells) / c.uptime }},

	// Reference index lifecycle (the generation store behind /v1/map); its
	// JSON form is the store's status document.
	{name: "seedex_index_generation", typ: gauge, help: "Serving generation of the reference index store.", on: hasIndex, v: func(c *scrape) float64 { return float64(c.index.Generation) }},
	{name: "seedex_index_reloads_total", typ: counter, help: "Index hot reloads that published a new generation.", on: hasIndex, v: func(c *scrape) float64 { return float64(c.index.Reloads) }},
	{name: "seedex_index_reload_failures_total", typ: counter, help: "Index load attempts rejected (corrupt, truncated, vanished).", on: hasIndex, v: func(c *scrape) float64 { return float64(c.index.ReloadFailures) }},
	{name: "seedex_index_rollbacks_total", typ: counter, help: "Reload triggers that exhausted retries and kept the old generation.", on: hasIndex, v: func(c *scrape) float64 { return float64(c.index.Rollbacks) }},
	{name: "seedex_index_degraded_reload", typ: gauge, help: "1 while the last reload rolled back (still serving the previous generation).", on: hasIndex, v: func(c *scrape) float64 { return boolGauge(c.index.DegradedReload) }},
	{name: "seedex_index_mmap_bytes", typ: gauge, help: "Bytes of the serving generation's read-only mapping (0 on the copy-load path).", on: hasIndex, v: func(c *scrape) float64 { return float64(c.index.MappedBytes) }},
	{name: "seedex_index_warmup_seconds", typ: gauge, help: "Page-touch warmup time of the serving generation.", on: hasIndex, v: func(c *scrape) float64 { return c.index.WarmupMs / 1e3 }},
	{name: "seedex_index_load_seconds", typ: gauge, help: "Validate-and-assemble time of the serving generation.", on: hasIndex, v: func(c *scrape) float64 { return c.index.LoadMs / 1e3 }},

	// Tracer health; its JSON form is the tracer's own statistics.
	{name: "seedex_trace_sample_every", typ: gauge, help: "Head-sampling ratio (1 in N requests).", on: hasTrace, v: func(c *scrape) float64 { return float64(c.trace.SampleEvery) }},
	{name: "seedex_trace_sampled_requests_total", typ: counter, help: "Requests selected by head sampling.", on: hasTrace, v: func(c *scrape) float64 { return float64(c.trace.SampledTotal) }},
	{name: "seedex_trace_spans_total", typ: counter, help: "Spans copied into retained journeys.", on: hasTrace, v: func(c *scrape) float64 { return float64(c.trace.SpansTotal) }},
	{name: "seedex_trace_slow_retained", typ: gauge, help: "Requests held in the slow top-K.", on: hasTrace, v: func(c *scrape) float64 { return float64(c.trace.SlowRetained) }},
	{name: "seedex_trace_tail_started_total", typ: counter, help: "Requests that recorded into a journey buffer.", on: hasTail, v: func(c *scrape) float64 { return float64(c.trace.TailStarted) }},
	{name: "seedex_trace_tail_retained_total", typ: counter, help: "Journeys the verdict kept.", on: hasTail, v: func(c *scrape) float64 { return float64(c.trace.TailKept) }},
	{name: "seedex_trace_tail_retained", typ: gauge, help: "Journeys currently retained (kept store plus slow top-K).", on: hasTail, v: func(c *scrape) float64 { return float64(c.trace.TailRetained) }},
	{name: "seedex_trace_tail_span_drops_total", typ: counter, help: "Spans dropped by full journey buffers.", on: hasTail, v: func(c *scrape) float64 { return float64(c.trace.TailSpanDrops) }},

	// SLO burn-rate engine, read from its snapshot.
	{name: "seedex_slo_target", typ: gauge, help: "Declared objective target (good/total fraction).", series: perObjective(func(o *obs.ObjectiveStatus) []series { return one(o.Target) })},
	{name: "seedex_slo_good_total", typ: counter, help: "Cumulative good events per objective.", series: perObjective(func(o *obs.ObjectiveStatus) []series { return one(float64(o.Good)) })},
	{name: "seedex_slo_events_total", typ: counter, help: "Cumulative total events per objective.", series: perObjective(func(o *obs.ObjectiveStatus) []series { return one(float64(o.Total)) })},
	{name: "seedex_slo_burn_rate", typ: gauge, help: "Error-budget burn rate per objective and trailing window.", series: perObjective(func(o *obs.ObjectiveStatus) (out []series) {
		for _, w := range o.Windows {
			out = append(out, one(w.Burn, "window", w.Window)...)
		}
		return out
	})},
	{name: "seedex_slo_alert", typ: gauge, help: "Alert state per objective and severity (1 = firing).", series: perObjective(func(o *obs.ObjectiveStatus) []series {
		return append(one(boolGauge(o.FastBurn), "severity", "page"), one(boolGauge(o.SlowBurn), "severity", "ticket")...)
	})},
	{name: "seedex_slo_degraded", typ: gauge, help: "1 when any objective has a fast- or slow-burn alert firing.", v: func(c *scrape) float64 { return boolGauge(c.slo.Degraded) }},

	{name: "seedex_flight_dumps_total", typ: counter, help: "Flight-recorder tarballs written.", on: func(c *scrape) bool { return c.s.flight != nil }, v: func(c *scrape) float64 { return float64(c.s.flight.Dumps()) }},

	// Build identity and process lifetime. seedex_build_info follows the
	// _info convention: constant 1, identity in the labels.
	{name: "seedex_build_info", typ: gauge, help: "Build identity (constant 1; version/commit/go in labels).", series: func(c *scrape) []series {
		return one(1, "version", c.s.cfg.Build.Version, "commit", c.s.cfg.Build.Commit, "go", c.s.cfg.Build.GoVersion())
	}},
	{name: "seedex_process_uptime_seconds", typ: gauge, help: "Seconds since the server started.", key: "uptime_sec", v: func(c *scrape) float64 { return c.uptime }},
}

// writeProm renders the rows as Prometheus text, one family at a time:
// HELP and TYPE once, then every sample of the family. A family with no
// sample on this server is left out whole.
func (c *scrape) writeProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range metricRows {
		r := &metricRows[i]
		ss := r.samples(c)
		if r.name == "" || len(ss) == 0 {
			continue
		}
		help := strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(r.help)
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", r.name, help, r.name, r.typ)
		scale := r.scale
		if scale == 0 {
			scale = 1
		}
		for _, x := range ss {
			fmt.Fprintf(bw, "%s%s%s %s\n", r.name, x.suffix, labelPairs(x.labels), formatVal(x.v*scale))
		}
	}
	return bw.Flush()
}

// labelPairs renders {k1="v1",k2="v2"} (nothing for no labels), escaping
// the values.
func labelPairs(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	esc := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+esc.Replace(labels[i+1])+`"`)
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// formatVal renders a sample value (+Inf, -Inf and NaN as the text format
// spells them).
func formatVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// doc renders the rows as the /metrics JSON document. Beside them sit the
// fields that are not metrics: build identity, the config echo, the
// occupancy buckets, the pass rates, and the status documents of the index
// store and the tracer.
func (c *scrape) doc() map[string]any {
	cfg := c.s.cfg
	doc := map[string]any{
		"build":                cfg.Build,
		"batch_occupancy_hist": c.occupancy.Buckets(),
		"config": map[string]any{"max_batch": cfg.Batch.MaxBatch, "flush_us": float64(cfg.Batch.FlushInterval.Nanoseconds()) / 1e3,
			"workers": cfg.Batch.Workers, "queue_cap": cfg.Batch.QueueCap, "map_enabled": c.s.mapEnabled()},
	}
	flat := map[string]float64{}
	for i := range metricRows {
		for _, x := range metricRows[i].samples(c) {
			if x.key != "" {
				flat[x.key] = x.v
			}
		}
	}
	if c.checks != nil {
		doc["checks"] = map[string]any{
			"outcomes":            map[string]any{},
			"pass_rate":           ratio(flat["checks.passed"], flat["checks.total"]),
			"threshold_only_rate": ratio(flat["checks.threshold_only"], flat["checks.total"]),
		}
	}
	if c.index != nil {
		doc["index"] = c.index
	}
	if c.trace != nil {
		doc["trace"] = c.trace
	}
	for path, v := range flat {
		m, keys := doc, strings.Split(path, ".")
		for _, k := range keys[:len(keys)-1] {
			next, ok := m[k].(map[string]any)
			if !ok {
				next = map[string]any{}
				m[k] = next
			}
			m = next
		}
		m[keys[len(keys)-1]] = v
	}
	return doc
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Summary is the shutdown report: requests, jobs and batches served.
func (s *Server) Summary() string {
	c := s.scrape()
	return fmt.Sprintf("served %d requests, %d jobs in %d batches (mean occupancy %.1f)",
		c.requests, c.jobs[nCompleted], c.jobs[nBatches], c.occupancy.Mean())
}
