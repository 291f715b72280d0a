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
	"seedex/internal/faults"
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

// add merges o into s (the per-shard histograms sum to the server's).
func (s *histSnapshot) add(o histSnapshot) {
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Sum += o.Sum
	s.N += o.N
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

// Metrics holds the request-level counters. Every field is an independent
// atomic, so the handlers never share a lock with the /metrics scraper.
// Job-level counters live per shard (shardMetrics); the server-wide job
// values are their sums, taken at scrape time.
type Metrics struct {
	Requests atomic.Int64 // HTTP requests served on the job endpoints
	// Request outcomes, counted once per request from its final status
	// (request.done).
	BadInput atomic.Int64 // answered 400 or 413
	Rejected atomic.Int64 // answered 429: every shard queue was full
	Draining atomic.Int64 // answered 503: the server is draining
	Failed   atomic.Int64 // answered 429/500/503/504 (SLO availability)

	Latency hist // ns from request start to response ready

	// Wire codec busy time on the batch endpoints: scanning a body that was
	// read whole, rendering a reply before it is written.
	DecodeNs      atomic.Int64
	EncodeNs      atomic.Int64
	CodecRequests atomic.Int64 // bodies scanned
}

// scrape is every live value the metric rows read, loaded once per
// /metrics request, flight dump or shutdown summary, so the two formats
// and the server-wide sums agree with the per-shard values they derive
// from.
type scrape struct {
	s      *Server
	uptime float64

	requests, badInput, rejected, draining, failed int64
	decodeNs, encodeNs, codecRequests              int64
	latency                                        histSnapshot

	shards               []shardScrape
	total                [numShardCounts]int64 // sums over shards
	occupancy, queueWait histSnapshot          // sums over shards
	extDepth, extCap     int
	mapDepth, mapCap     int
	withHealth, degraded int                  // shards with a health source; of them, degraded
	health               *faults.Health       // the shared extender's (breaker state, fault counters), if any
	checks               []core.StatsSnapshot // one per distinct stats source
	kernel               align.KernelTelemetry
	index                *refstore.Status
	trace                *obs.Stats
	slo                  obs.SLOSnapshot
}

// shardScrape is one shard's slice of a scrape.
type shardScrape struct {
	id                   int
	n                    [numShardCounts]int64
	occupancy, queueWait histSnapshot
	depth, cap           int
	inflight             int64
	health               *faults.Health
}

func (s *Server) scrape() *scrape {
	m := s.met
	c := &scrape{
		s: s, uptime: time.Since(s.started).Seconds(),
		requests: m.Requests.Load(), badInput: m.BadInput.Load(), rejected: m.Rejected.Load(),
		draining: m.Draining.Load(), failed: m.Failed.Load(),
		decodeNs: m.DecodeNs.Load(), encodeNs: m.EncodeNs.Load(), codecRequests: m.CodecRequests.Load(),
		latency: m.Latency.snapshot(),
		kernel:  align.KernelSnapshot(),
		slo:     s.slo.Snapshot(),
	}
	for _, sh := range s.shards {
		ss := shardScrape{id: sh.id, occupancy: sh.sm.occupancy.snapshot(), queueWait: sh.sm.queueWait.snapshot(),
			depth: sh.ext.QueueDepth(), cap: sh.ext.QueueCap(), inflight: sh.inflight.Load()}
		for i := range ss.n {
			ss.n[i] = sh.sm.n[i].Load()
			c.total[i] += ss.n[i]
		}
		c.occupancy.add(ss.occupancy)
		c.queueWait.add(ss.queueWait)
		c.extDepth += ss.depth
		c.extCap += ss.cap
		if sh.maps != nil {
			c.mapDepth += sh.maps.QueueDepth()
			c.mapCap += sh.maps.QueueCap()
		}
		if sh.health != nil {
			h := sh.health()
			ss.health = &h
			c.withHealth++
			if h.Degraded {
				c.degraded++
			}
		}
		c.shards = append(c.shards, ss)
	}
	for _, st := range s.stats {
		c.checks = append(c.checks, st.Snapshot())
	}
	if s.cfg.NewExtender == nil {
		// Every shard shares cfg.Extender, so its health is the server's.
		c.health = c.shards[0].health
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
// JSON key it fills. Exactly one of v, shard and series is set, and it
// fixes the row's scope.
type row struct {
	name, typ, help string // Prometheus family; name "" renders JSON only
	// key is the JSON key path ("" renders Prometheus only); for a shard
	// row it is the key inside shards[i].
	key string
	// scale converts the value read (in JSON units) to the Prometheus
	// unit; 0 means 1.
	scale float64
	// on, when set, gates the whole family on the server's configuration.
	on func(*scrape) bool

	v      func(*scrape) float64      // server-wide: one value
	shard  func(*shardScrape) float64 // per shard: {shard="i"} and shards[i].<key>
	series func(*scrape) []series     // labelled: each series names its own JSON key
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
	case r.shard != nil:
		out := make([]series, len(c.shards))
		for i := range c.shards {
			out[i] = series{labels: []string{"shard", strconv.Itoa(c.shards[i].id)}, v: r.shard(&c.shards[i])}
		}
		return out
	}
	return r.series(c)
}

// total, shardN and checkCount read one counter: summed over shards, of
// one shard, summed over stats sources.
func total(i shardCount) func(*scrape) float64 {
	return func(c *scrape) float64 { return float64(c.total[i]) }
}

func shardN(i shardCount) func(*shardScrape) float64 {
	return func(ss *shardScrape) float64 { return float64(ss.n[i]) }
}

func checkCount(f func(*core.StatsSnapshot) int64) func(*scrape) float64 {
	return func(c *scrape) float64 {
		var n int64
		for i := range c.checks {
			n += f(&c.checks[i])
		}
		return float64(n)
	}
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

// perHealthShard is a family over the shards with a health source,
// labelled by shard.
func perHealthShard(f func(h *faults.Health) []series) func(*scrape) []series {
	return func(c *scrape) []series {
		var out []series
		for _, ss := range c.shards {
			if ss.health != nil {
				out = append(out, prefixed("shard", strconv.Itoa(ss.id), f(ss.health))...)
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

var breakerStates = []string{"closed", "open", "half-open"}

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
	{name: "seedex_jobs_rejected_total", typ: counter, help: "Requests refused with 429 (every shard queue full).", key: "jobs_rejected", v: func(c *scrape) float64 { return float64(c.rejected) }},
	{name: "seedex_jobs_rejected_draining_total", typ: counter, help: "Requests refused with 503 (draining).", key: "jobs_rejected_draining", v: func(c *scrape) float64 { return float64(c.draining) }},

	// Jobs and batches: sums of the per-shard counters.
	{name: "seedex_jobs_accepted_total", typ: counter, help: "Jobs admitted to the batching queue.", key: "jobs_accepted", v: total(smAccepted)},
	{name: "seedex_jobs_expired_total", typ: counter, help: "Jobs whose deadline passed before compute.", key: "jobs_expired", v: total(smExpired)},
	{name: "seedex_jobs_completed_total", typ: counter, help: "Jobs fully computed.", key: "jobs_completed", v: total(smCompleted)},
	{name: "seedex_batches_total", typ: counter, help: "Micro-batches dispatched to workers.", key: "batches", v: total(smBatches)},
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

	// Check workflow outcomes and degraded-mode containment counters,
	// summed over every distinct stats source in the shard pool.
	{name: "seedex_check_total", typ: counter, help: "Extensions through the check workflow.", key: "checks.total", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.Total })},
	{name: "seedex_check_passed_total", typ: counter, help: "Extensions proven optimal.", key: "checks.passed", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.Passed })},
	{name: "seedex_check_reruns_total", typ: counter, help: "Extensions rerun on the host.", key: "checks.reruns", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.Reruns })},
	{name: "seedex_check_threshold_only_total", typ: counter, help: "Extensions proven optimal by thresholding alone.", key: "checks.threshold_only", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.ThresholdOnly })},
	{name: "seedex_check_outcome_total", typ: counter, help: "Check outcomes by verdict.", on: hasChecks, series: func(c *scrape) []series {
		var out []series
		for o := range c.checks[0].Outcomes {
			x := series{labels: []string{"outcome", core.Outcome(o).String()}, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.Outcomes[o] })(c)}
			if x.v > 0 { // the JSON map names the outcomes seen
				x.key = "checks.outcomes." + core.Outcome(o).String()
			}
			out = append(out, x)
		}
		return out
	}},
	{name: "seedex_device_faults_total", typ: counter, help: "Device responses that failed integrity validation.", key: "checks.device_faults", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.DeviceFaults })},
	{name: "seedex_device_retries_total", typ: counter, help: "Device batch attempts retried.", key: "checks.device_retries", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.DeviceRetries })},
	{name: "seedex_breaker_trips_total", typ: counter, help: "Circuit breaker closed->open transitions.", key: "checks.breaker_trips", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.BreakerTrips })},
	{name: "seedex_host_only_total", typ: counter, help: "Extensions served entirely by the host full-band kernel.", key: "checks.host_only", on: hasChecks, v: checkCount(func(s *core.StatsSnapshot) int64 { return s.HostOnly })},
	{name: "seedex_degraded", typ: gauge, help: "1 while a breaker keeps any shard's device out of the path.", on: func(c *scrape) bool { return c.withHealth > 0 }, v: func(c *scrape) float64 { return boolGauge(c.degraded > 0) }},
	{name: "seedex_breaker_state", typ: gauge, help: "Breaker state (exactly one series is 1).", on: func(c *scrape) bool { return c.health != nil }, series: func(c *scrape) []series { return oneHot("state", breakerStates, c.health.Breaker) }},

	// Shard pool and routing tier: the per-shard split of the job counters,
	// the router's decision and steal counters, and their sums.
	{name: "seedex_shards", typ: gauge, help: "Shard units in the serving pool.", key: "cluster.shards", v: func(c *scrape) float64 { return float64(len(c.shards)) }},
	{name: "seedex_shards_degraded", typ: gauge, help: "Shards currently in host-only (degraded) mode.", key: "cluster.shards_degraded", v: func(c *scrape) float64 { return float64(c.degraded) }},
	{key: "cluster.routed", v: total(smRouted)},
	{key: "cluster.rerouted", v: total(smRerouted)},
	{key: "cluster.avoided", v: total(smAvoided)},
	{key: "cluster.batches_stolen", v: total(smSteals)},
	{name: "seedex_shard_jobs_accepted_total", typ: counter, help: "Jobs admitted to this shard's queue.", key: "jobs_accepted", shard: shardN(smAccepted)},
	{name: "seedex_shard_jobs_completed_total", typ: counter, help: "Jobs computed for this shard.", key: "jobs_completed", shard: shardN(smCompleted)},
	{name: "seedex_shard_jobs_rejected_total", typ: counter, help: "Submits refused by this shard's full queue.", key: "jobs_rejected", shard: shardN(smRejected)},
	{name: "seedex_shard_jobs_expired_total", typ: counter, help: "Admitted jobs that expired before compute.", key: "jobs_expired", shard: shardN(smExpired)},
	{name: "seedex_shard_batches_total", typ: counter, help: "Micro-batches dispatched by this shard's collector.", key: "batches", shard: shardN(smBatches)},
	{name: "seedex_shard_batch_occupancy_mean", typ: gauge, help: "Mean jobs per dispatched batch on this shard.", key: "batch_occupancy_mean", shard: func(ss *shardScrape) float64 { return ss.occupancy.Mean() }},
	{name: "seedex_shard_queue_depth", typ: gauge, help: "Jobs waiting in this shard's admission queue.", key: "queue_depth", shard: func(ss *shardScrape) float64 { return float64(ss.depth) }},
	{key: "queue_cap", shard: func(ss *shardScrape) float64 { return float64(ss.cap) }},
	{name: "seedex_shard_inflight", typ: gauge, help: "Admitted-but-unfinished jobs on this shard.", key: "inflight", shard: func(ss *shardScrape) float64 { return float64(ss.inflight) }},
	{name: "seedex_router_routed_total", typ: counter, help: "Routing decisions that picked this shard.", key: "routed", shard: shardN(smRouted)},
	{name: "seedex_router_avoided_total", typ: counter, help: "Routing decisions that skipped this shard while degraded.", key: "avoided", shard: shardN(smAvoided)},
	{name: "seedex_router_rerouted_total", typ: counter, help: "Jobs failed over to this shard after another queue refused them.", key: "rerouted", shard: shardN(smRerouted)},
	{name: "seedex_router_steals_total", typ: counter, help: "Batches this shard's workers stole from peers.", key: "batches_stolen_from_peers", shard: shardN(smSteals)},
	{name: "seedex_router_stolen_total", typ: counter, help: "Batches peers stole from this shard.", key: "batches_stolen_by_peers", shard: shardN(smStolen)},
	{name: "seedex_shard_degraded", typ: gauge, help: "1 while this shard is in host-only mode.", series: perHealthShard(func(h *faults.Health) []series { return one(boolGauge(h.Degraded)) })},
	{name: "seedex_shard_breaker_state", typ: gauge, help: "This shard's breaker state (exactly one series is 1).", series: perHealthShard(func(h *faults.Health) []series { return oneHot("state", breakerStates, h.Breaker) })},

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
// occupancy buckets, the shards' breaker states, the pass rates, and the
// status documents of the shared breaker, the index store and the tracer.
func (c *scrape) doc() map[string]any {
	cfg := c.s.cfg
	doc := map[string]any{
		"build":                cfg.Build,
		"batch_occupancy_hist": c.occupancy.Buckets(),
		"config": map[string]any{"max_batch": cfg.Batch.MaxBatch, "flush_us": float64(cfg.Batch.FlushInterval.Nanoseconds()) / 1e3,
			"workers": cfg.Batch.Workers, "queue_cap": cfg.Batch.QueueCap, "shards": len(c.shards), "map_enabled": c.s.mapEnabled()},
	}
	shards := make([]map[string]any, len(c.shards))
	for i, ss := range c.shards {
		shards[i] = map[string]any{"id": ss.id, "degraded": ss.health != nil && ss.health.Degraded}
		if ss.health != nil {
			shards[i]["breaker"] = ss.health.Breaker
		}
	}
	doc["shards"] = shards
	flat := map[string]float64{}
	for i := range metricRows {
		r := &metricRows[i]
		if r.shard != nil {
			for i := range c.shards {
				shards[i][r.key] = r.shard(&c.shards[i])
			}
			continue
		}
		for _, x := range r.samples(c) {
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
	if c.health != nil {
		doc["faults"] = c.health
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

// Summary is the shutdown report: requests, jobs and batches served, then
// one line per shard when there are several.
func (s *Server) Summary() []string {
	c := s.scrape()
	out := []string{fmt.Sprintf("served %d requests, %d jobs in %d batches (mean occupancy %.1f)",
		c.requests, c.total[smCompleted], c.total[smBatches], c.occupancy.Mean())}
	if len(c.shards) > 1 {
		for _, ss := range c.shards {
			out = append(out, fmt.Sprintf("shard %d: %d jobs in %d batches, routed=%d rerouted=%d stolen-from-peers=%d",
				ss.id, ss.n[smCompleted], ss.n[smBatches], ss.n[smRouted], ss.n[smRerouted], ss.n[smSteals]))
		}
	}
	return out
}
