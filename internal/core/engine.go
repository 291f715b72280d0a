package core

import (
	"time"

	"seedex/internal/align"
)

// BatchEngine is the one shape of work the host side hands out (paper
// §V-B): a batch of independent extensions in, results plus "could not be
// proven, rerun" flags out — whether a software checker or a plain
// extender ran it is invisible to whoever formed the batch. A BatchEngine
// is a per-goroutine session owning its scratch.
type BatchEngine interface {
	// ExtendBatchInto extends every request and returns the responses in
	// request order, reusing dst's backing array when it is large enough.
	// Each request's Tag is echoed in its Response.
	ExtendBatchInto(reqs []Request, dst []Response) []Response
	// LastBatch describes the most recent ExtendBatchInto call.
	LastBatch() BatchInfo
}

// BatchInfo is the per-batch half of an engine's timing report (the
// per-job half is Response.RerunNs). Start and Dur bracket the batch's
// speculate-and-check interval; Rerun is the one interval right after it
// in which the engine reran the batch's failed checks together (a Checker
// sweeps each inside the band its scores allow; zero when none failed),
// and the rerun jobs' RerunNs are its equal shares.
type BatchInfo struct {
	Start time.Time
	Dur   time.Duration
	Rerun time.Duration
}

// extenderEngine adapts any align.Extender to the BatchEngine contract:
// one timed ExtendJobs call (the extender's batch path when it has one),
// results wrapped as unverified responses.
type extenderEngine struct {
	ext  align.Extender
	jobs []align.Job
	res  []align.ExtendResult
	last BatchInfo
}

func (e *extenderEngine) LastBatch() BatchInfo { return e.last }

func (e *extenderEngine) ExtendBatchInto(reqs []Request, dst []Response) []Response {
	if cap(dst) < len(reqs) {
		dst = make([]Response, len(reqs))
	}
	dst = dst[:len(reqs)]
	e.jobs = e.jobs[:0]
	for _, r := range reqs {
		e.jobs = append(e.jobs, align.Job{Q: r.Q, T: r.T, H0: r.H0})
	}
	t0 := time.Now()
	e.res = align.ExtendJobs(e.ext, e.jobs, e.res[:0])
	e.last = BatchInfo{Start: t0, Dur: time.Since(t0)}
	for i, r := range reqs {
		dst[i] = Response{Tag: r.Tag, Res: e.res[i], Outcome: OutcomeUnknown}
	}
	return dst
}

// EngineSession mints one worker's BatchEngine from ext: a session of ext
// when it offers sessions, used directly when that already is a
// BatchEngine (a Checker) and through the adapter otherwise.
func EngineSession(ext align.Extender) BatchEngine {
	if se, ok := ext.(align.SessionExtender); ok {
		ext = se.Session()
	}
	if be, ok := ext.(BatchEngine); ok {
		return be
	}
	return &extenderEngine{ext: ext}
}
