package core

import (
	"sync"
	"time"

	"seedex/internal/align"
	"seedex/internal/editmachine"
)

// Request is one extension problem submitted to a batch.
type Request struct {
	Q, T []byte // query and target (band-anchored at their left ends)
	H0   int    // seed score the extension starts from
	Tag  int    // caller-chosen identifier, echoed in the Response
}

// Response reports one extension of a batch.
type Response struct {
	Tag   int
	Res   align.ExtendResult
	Rerun bool // optimality was not proven; Res came from the fallback
	// Outcome is the check verdict behind Rerun (informational — the
	// observability layer exports it as the per-job span attribute).
	// OutcomeUnknown marks responses whose verdict was not observable
	// (device-faulted slots rebuilt by the host, host-only batches).
	Outcome Outcome
	// RerunNs is this job's share of the host rerun time that followed its
	// batch's speculate-and-check interval (see BatchInfo): positive exactly
	// when the engine reran the job, zero otherwise. A batch's failed
	// checks rerun together as one packed full-band batch, so the share is
	// an equal split of that one interval — the shares of a batch sum to
	// it exactly, and no single job's rerun has a time of its own.
	RerunNs int64
}

// Checker runs the SeedEx check workflow with caller-owned scratch: one
// Checker value holds every buffer the banded kernel, the edit machine and
// the host rerun need, so a goroutine that keeps a Checker for its
// lifetime performs the whole speculate-check-rerun cycle without
// allocating. A Checker must not be used concurrently; mint one per
// worker (see SeedEx.Session).
type Checker struct {
	Config Config
	// Fallback performs host reruns; nil selects the workspace-backed
	// full-band kernel with Config.Scoring.
	Fallback align.Extender
	// Stats, when non-nil, aggregates check outcomes (atomic counters, so
	// many Checkers may share one Stats).
	Stats *Stats

	ews *align.Workspace
	ems *editmachine.Workspace

	// Batch scratch (grow-only): per-job banded results, boundaries and
	// reports for checkJobs, the Job slice ExtendBatchInto builds from its
	// Requests, and the failed subset of a batch with its positions and
	// full-band results for rerunFailed.
	bjobs []align.Job
	bres  []align.ExtendResult
	bbds  []align.BandBoundary
	breps []Report
	rjobs []align.Job
	ridx  []int
	rres  []align.ExtendResult
	full  fullBandSession // the nil-Fallback rerun extender, on ews
	last  BatchInfo
}

// NewChecker returns a Checker for cfg with pre-created workspaces.
func NewChecker(cfg Config) *Checker {
	return &Checker{Config: cfg, ews: align.NewWorkspace(), ems: editmachine.NewWorkspace()}
}

var _ align.Extender = (*Checker)(nil)

// KernelScoring exposes the scoring scheme the batch kernels run under;
// shape-binned schedulers (the server micro-batcher, the driver's batch
// producer) duck-type this accessor to key jobs by align.ShapeBin.
func (c *Checker) KernelScoring() align.Scoring { return c.Config.Scoring }

func (c *Checker) init() {
	if c.ews == nil {
		c.ews = align.NewWorkspace()
		c.ems = editmachine.NewWorkspace()
	}
}

// Check speculatively extends query against target with the narrow band
// and runs the optimality-check workflow. It does not record stats and
// does not rerun; the caller decides what to do on !report.Pass.
func (c *Checker) Check(query, target []byte, h0 int) (align.ExtendResult, Report) {
	c.init()
	res, bd := align.ExtendBandedWS(c.ews, query, target, h0, c.Config.Scoring, c.Config.Band)
	rep := check(c.ems, query, target, h0, res, bd, c.Config)
	return res, rep
}

// fallback returns the extender host reruns go through: Fallback when
// set, else the full-band kernels on the checker's own workspace.
func (c *Checker) fallback() align.Extender {
	if c.Fallback != nil {
		return c.Fallback
	}
	c.init()
	c.full = fullBandSession{sc: c.Config.Scoring, ws: c.ews}
	return &c.full
}

// Rerun performs the host full-band extension for one failed check.
func (c *Checker) Rerun(query, target []byte, h0 int) align.ExtendResult {
	return c.fallback().Extend(query, target, h0)
}

// rerunFailed reruns the jobs whose report did not pass, all of them as
// one batch through the fallback (for the default fallback one packed
// full-band kernel invocation: the failures of a batch fill lanes together
// like its speculation did). It returns the failed jobs' positions in
// ascending order and their results, both aliasing checker scratch.
func (c *Checker) rerunFailed(jobs []align.Job, reps []Report) ([]int, []align.ExtendResult) {
	c.rjobs, c.ridx = c.rjobs[:0], c.ridx[:0]
	for i := range reps {
		if !reps[i].Pass {
			c.rjobs = append(c.rjobs, jobs[i])
			c.ridx = append(c.ridx, i)
		}
	}
	if len(c.ridx) == 0 {
		return nil, nil
	}
	c.rres = align.ExtendJobs(c.fallback(), c.rjobs, c.rres[:0])
	return c.ridx, c.rres
}

// Extend implements align.Extender: check, record, rerun on failure.
func (c *Checker) Extend(query, target []byte, h0 int) align.ExtendResult {
	res, rep := c.Check(query, target, h0)
	if c.Stats != nil {
		c.Stats.record(rep)
	}
	if rep.Pass {
		return res
	}
	return c.Rerun(query, target, h0)
}

// ExtendBatch runs every request through the check workflow (with rerun on
// failure) and returns the responses in request order.
func (c *Checker) ExtendBatch(reqs []Request) []Response {
	return c.ExtendBatchInto(reqs, nil)
}

// checkJobs is the batched speculate-and-check core: one packed banded
// extension over all jobs (the SWAR kernels fill lanes across jobs, the
// software analogue of the accelerator's systolic batch), then the
// optimality checks per job. Results land in c.bres, boundaries in
// c.bbds, reports in the returned slice (aliasing c.breps; everything is
// valid until the next batch call on this Checker). No stats, no reruns —
// each entry point layers its own policy on top.
func (c *Checker) checkJobs(jobs []align.Job) []Report {
	c.init()
	if cap(c.bres) < len(jobs) {
		c.bres = make([]align.ExtendResult, len(jobs))
		c.bbds = make([]align.BandBoundary, len(jobs))
		c.breps = make([]Report, len(jobs))
	}
	c.bres = c.bres[:len(jobs)]
	c.bbds = c.bbds[:len(jobs)]
	c.breps = c.breps[:len(jobs)]
	align.ExtendBandedBatchWS(c.ews, jobs, c.Config.Scoring, c.Config.Band, c.bres, c.bbds)
	for i := range jobs {
		c.breps[i] = check(c.ems, jobs[i].Q, jobs[i].T, jobs[i].H0, c.bres[i], c.bbds[i], c.Config)
	}
	return c.breps
}

// ExtendBatchInto is ExtendBatch reusing dst's backing array when it is
// large enough — the allocation-free form for long-lived workers. The
// speculative banded extensions of the whole batch run as one packed
// kernel invocation, timed as the batch's LastBatch interval; the failed
// checks then rerun as one packed full-band batch, whose interval is
// split evenly over their RerunNs.
func (c *Checker) ExtendBatchInto(reqs []Request, dst []Response) []Response {
	t0 := time.Now()
	dst, reps := c.CheckBatch(reqs, dst)
	r0 := time.Now()
	c.last = BatchInfo{Start: t0, Dur: r0.Sub(t0)}
	c.recordAll(reps)
	idx, res := c.rerunFailed(c.bjobs, reps)
	if len(idx) == 0 {
		return dst
	}
	// Every share is at least 1 ns so that RerunNs marks the rerun jobs.
	n := int64(len(idx))
	pooled := max(n, time.Since(r0).Nanoseconds())
	c.last.Rerun = time.Duration(pooled)
	share, extra := pooled/n, pooled%n
	for k, i := range idx {
		dst[i].Res = res[k]
		dst[i].RerunNs = share
		if int64(k) < extra {
			dst[i].RerunNs++
		}
	}
	return dst
}

func (c *Checker) recordAll(reps []Report) {
	if c.Stats == nil {
		return
	}
	for i := range reps {
		c.Stats.record(reps[i])
	}
}

// LastBatch implements BatchEngine.
func (c *Checker) LastBatch() BatchInfo { return c.last }

var _ BatchEngine = (*Checker)(nil)

// CheckBatch speculatively extends every request as one packed batch and
// runs the optimality checks, without host reruns: a failed response
// carries the banded result with Rerun set, and the caller decides where
// the rerun happens (the FPGA driver overlaps host reruns with device
// compute). The returned reports alias checker scratch, valid until the
// next batch call; stats are not recorded.
func (c *Checker) CheckBatch(reqs []Request, dst []Response) ([]Response, []Report) {
	if cap(dst) < len(reqs) {
		dst = make([]Response, len(reqs))
	}
	dst = dst[:len(reqs)]
	if cap(c.bjobs) < len(reqs) {
		c.bjobs = make([]align.Job, len(reqs))
	}
	c.bjobs = c.bjobs[:len(reqs)]
	for i, r := range reqs {
		c.bjobs[i] = align.Job{Q: r.Q, T: r.T, H0: r.H0}
	}
	reps := c.checkJobs(c.bjobs)
	for i, r := range reqs {
		dst[i] = Response{Tag: r.Tag, Res: c.bres[i], Rerun: !reps[i].Pass, Outcome: reps[i].Outcome}
	}
	return dst, reps
}

// ExtendJobs implements align.BatchExtender: the full check workflow
// (batched speculation, checks, stats, reruns on failure) over every job,
// results in job order.
func (c *Checker) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	if cap(dst) < len(jobs) {
		dst = make([]align.ExtendResult, len(jobs))
	}
	dst = dst[:len(jobs)]
	reps := c.checkJobs(jobs)
	c.recordAll(reps)
	copy(dst, c.bres)
	idx, res := c.rerunFailed(jobs, reps)
	for k, i := range idx {
		dst[i] = res[k]
	}
	return dst
}

var _ align.BatchExtender = (*Checker)(nil)

// checkerPool backs the package-level Check function; long-lived callers
// should hold their own Checker.
var checkerPool = sync.Pool{New: func() any { return &Checker{} }}
