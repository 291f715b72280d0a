package driver

import (
	"context"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/faults"
)

// Engine adapts a Device into the align.Extender family, so the
// alignment service (internal/server) and the pipeline front-ends serve
// extensions through the full simulated platform — DMA, device latency,
// fault injection, integrity validation, retry and breaker degradation —
// instead of calling the software kernels directly. Engine is safe for
// concurrent use; Session mints per-goroutine driver sessions.
type Engine struct {
	dev *Device
}

// NewEngine builds the device and wraps it as an extender.
func NewEngine(cfg Config) *Engine { return &Engine{dev: NewDevice(cfg)} }

// Device exposes the underlying device (injector, breaker, counters).
func (e *Engine) Device() *Device { return e.dev }

// CheckStats exposes the device's check statistics; the server's stats
// pickup duck-types this method.
func (e *Engine) CheckStats() *core.Stats { return e.dev.Stats }

// Health snapshots the platform's fault-tolerance status.
func (e *Engine) Health() faults.Health { return e.dev.Health() }

// KernelScoring exposes the device's scoring scheme, so the server's
// micro-batcher can shape-bin jobs headed for the device batch path.
func (e *Engine) KernelScoring() align.Scoring { return e.dev.cfg.Scoring }

// Extend serves one extension through a throwaway session.
func (e *Engine) Extend(query, target []byte, h0 int) align.ExtendResult {
	return e.Session().Extend(query, target, h0)
}

// ExtendJobs serves one batch through a throwaway session.
func (e *Engine) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	s := e.Session().(*engineSession)
	return s.ExtendJobs(jobs, dst)
}

// Session mints a per-goroutine driver session: one check session plus
// reusable request/response buffers, so a server worker that keeps it
// drives the device batch path allocation-free.
func (e *Engine) Session() align.Extender {
	return &engineSession{dev: e.dev, s: e.dev.newSession()}
}

var (
	_ align.BatchExtender   = (*Engine)(nil)
	_ align.SessionExtender = (*Engine)(nil)
)

type engineSession struct {
	dev  *Device
	s    *session
	reqs []Request
	out  []Response
	last core.BatchInfo
}

// LastBatch implements core.BatchEngine: the whole round trip of the most
// recent ExtendBatchInto call.
func (es *engineSession) LastBatch() core.BatchInfo { return es.last }

func (es *engineSession) Extend(query, target []byte, h0 int) align.ExtendResult {
	var one [1]align.ExtendResult
	es.ExtendJobs([]align.Job{{Q: query, T: target, H0: h0}}, one[:0])
	return one[0]
}

// ExtendJobs drives one dynamically formed batch through the device with
// the full fault-tolerance path. The batch key comes from the device's
// sequence counter: dynamic batches are not positionally replayable the
// way Run's are, but every draw is still deterministic in (seed, seq).
func (es *engineSession) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	if cap(dst) < len(jobs) {
		dst = make([]align.ExtendResult, len(jobs))
	}
	dst = dst[:len(jobs)]
	if len(jobs) == 0 {
		return dst
	}
	if cap(es.reqs) < len(jobs) {
		es.reqs = make([]Request, len(jobs))
	}
	es.reqs = es.reqs[:len(jobs)]
	for i, j := range jobs {
		es.reqs[i] = Request{Q: j.Q, T: j.T, H0: j.H0, Tag: i}
	}
	es.out = es.ExtendBatchInto(es.reqs, es.out)
	for i := range es.out {
		dst[i] = es.out[i].Res
	}
	return dst
}

// ExtendBatchInto drives one batch of Requests through the device and
// returns full Responses (rerun flags and check outcomes included) in
// request order, reusing dst when it is large enough. Request Tags must be
// unique within the batch: validation matches device responses by Tag.
func (es *engineSession) ExtendBatchInto(reqs []Request, dst []Response) []Response {
	if cap(dst) < len(reqs) {
		dst = make([]Response, len(reqs))
	}
	dst = dst[:len(reqs)]
	if len(reqs) == 0 {
		return dst
	}
	key := es.dev.seq.Add(1)
	t0 := time.Now()
	es.s.process(context.Background(), key, reqs, dst)
	es.last = core.BatchInfo{Start: t0, Dur: time.Since(t0)}
	return dst
}

var (
	_ align.BatchExtender = (*engineSession)(nil)
	_ core.BatchEngine    = (*engineSession)(nil)
)
