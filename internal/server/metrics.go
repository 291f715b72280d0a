package server

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of the power-of-two histograms: bucket i
// holds values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i). 40 buckets
// cover one nanosecond to ~9 minutes of latency, or any practical batch
// occupancy, without configuration.
const histBuckets = 40

// hist is a lock-free power-of-two histogram: recording is one atomic add,
// reading is a sweep. It backs the latency and batch-occupancy metrics.
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

// Quantiles bundles the standard p50/p90/p99 estimates of one histogram
// (interpolated within the power-of-two buckets), the shape shared by the
// JSON metrics document and the Prometheus exposition.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// Quantiles estimates p50/p90/p99 in one sweep-free bundle.
func (s histSnapshot) Quantiles() Quantiles {
	return Quantiles{P50: s.Quantile(0.50), P90: s.Quantile(0.90), P99: s.Quantile(0.99)}
}

// Scaled returns the quantile bundle with every estimate multiplied by
// scale (ns -> µs or seconds for reporting).
func (q Quantiles) Scaled(scale float64) Quantiles {
	return Quantiles{P50: q.P50 * scale, P90: q.P90 * scale, P99: q.P99 * scale}
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

// bucketBounds returns bucket i's value bounds: bucket 0 is exactly
// {0}, bucket i>0 covers [2^(i-1), 2^i - 1].
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return float64(int64(1) << (i - 1)), float64(int64(1)<<i - 1)
}

// Buckets returns the non-empty buckets as [lower, upper] value bounds
// with counts, for the metrics JSON.
func (s histSnapshot) Buckets() []BucketCount {
	var out []BucketCount
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(1) << (i - 1)
		}
		out = append(out, BucketCount{Lo: lo, Hi: int64(1)<<i - 1, Count: c})
	}
	return out
}

// BucketCount is one non-empty histogram bucket in the metrics JSON.
type BucketCount struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Metrics aggregates the server's operational counters. Every field is an
// independent atomic, so the hot paths (admission, batch dispatch,
// request completion) never share a lock with the /metrics scraper.
type Metrics struct {
	// Admission.
	Accepted  atomic.Int64 // jobs admitted to the queue
	Rejected  atomic.Int64 // jobs refused with 429 (queue full)
	Draining  atomic.Int64 // jobs refused with 503 (shutting down)
	Expired   atomic.Int64 // jobs whose deadline passed before compute
	Requests  atomic.Int64 // HTTP requests served on the job endpoints
	BadInput  atomic.Int64 // requests refused with 400
	Failed    atomic.Int64 // requests answered 429/500/503/504 (SLO availability)
	Completed atomic.Int64 // jobs fully computed

	// Dispatch.
	Batches   atomic.Int64 // device batches dispatched
	Occupancy hist         // jobs per dispatched batch
	QueueWait hist         // ns from admission to dispatch
	Latency   hist         // ns from request start to response ready

	// Wire codec busy time on the batch endpoints: scanning a body that was
	// read whole, rendering a reply before it is written.
	DecodeNs      atomic.Int64
	EncodeNs      atomic.Int64
	CodecRequests atomic.Int64 // bodies scanned
}

// MetricsSnapshot is the JSON shape of /metrics (expvar-style: one flat
// document, scrape-friendly names).
type MetricsSnapshot struct {
	Accepted  int64 `json:"jobs_accepted"`
	Rejected  int64 `json:"jobs_rejected"`
	Draining  int64 `json:"jobs_rejected_draining"`
	Expired   int64 `json:"jobs_expired"`
	Requests  int64 `json:"requests"`
	BadInput  int64 `json:"requests_bad_input"`
	Failed    int64 `json:"requests_failed"`
	Completed int64 `json:"jobs_completed"`

	Batches        int64         `json:"batches"`
	MeanOccupancy  float64       `json:"batch_occupancy_mean"`
	OccupancyP50   float64       `json:"batch_occupancy_p50"`
	OccupancyP90   float64       `json:"batch_occupancy_p90"`
	OccupancyP99   float64       `json:"batch_occupancy_p99"`
	OccupancyHist  []BucketCount `json:"batch_occupancy_hist"`
	QueueDepth     int           `json:"queue_depth"`
	QueueCap       int           `json:"queue_cap"`
	QueueWaitP50Us float64       `json:"queue_wait_p50_us"`
	QueueWaitP90Us float64       `json:"queue_wait_p90_us"`
	QueueWaitP99Us float64       `json:"queue_wait_p99_us"`
	LatencyP50Us   float64       `json:"latency_p50_us"`
	LatencyP90Us   float64       `json:"latency_p90_us"`
	LatencyP99Us   float64       `json:"latency_p99_us"`
	LatencyMeanUs  float64       `json:"latency_mean_us"`

	DecodeNs      int64 `json:"decode_ns"`
	EncodeNs      int64 `json:"encode_ns"`
	CodecRequests int64 `json:"codec_requests"`
}

// Snapshot reads every counter into the JSON shape. Queue depth/cap are
// passed in by the owner (they live on the batcher).
func (m *Metrics) Snapshot(queueDepth, queueCap int) MetricsSnapshot {
	occ := m.Occupancy.snapshot()
	qw := m.QueueWait.snapshot()
	lat := m.Latency.snapshot()
	occQ, qwQ, latQ := occ.Quantiles(), qw.Quantiles().Scaled(1e-3), lat.Quantiles().Scaled(1e-3)
	return MetricsSnapshot{
		Accepted:  m.Accepted.Load(),
		Rejected:  m.Rejected.Load(),
		Draining:  m.Draining.Load(),
		Expired:   m.Expired.Load(),
		Requests:  m.Requests.Load(),
		BadInput:  m.BadInput.Load(),
		Failed:    m.Failed.Load(),
		Completed: m.Completed.Load(),

		Batches:        m.Batches.Load(),
		MeanOccupancy:  occ.Mean(),
		OccupancyP50:   occQ.P50,
		OccupancyP90:   occQ.P90,
		OccupancyP99:   occQ.P99,
		OccupancyHist:  occ.Buckets(),
		QueueDepth:     queueDepth,
		QueueCap:       queueCap,
		QueueWaitP50Us: qwQ.P50,
		QueueWaitP90Us: qwQ.P90,
		QueueWaitP99Us: qwQ.P99,
		LatencyP50Us:   latQ.P50,
		LatencyP90Us:   latQ.P90,
		LatencyP99Us:   latQ.P99,
		LatencyMeanUs:  lat.Mean() / 1e3,

		DecodeNs:      m.DecodeNs.Load(),
		EncodeNs:      m.EncodeNs.Load(),
		CodecRequests: m.CodecRequests.Load(),
	}
}

// observeLatency records one request's service time.
func (m *Metrics) observeLatency(d time.Duration) { m.Latency.observe(d.Nanoseconds()) }
