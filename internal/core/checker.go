package core

import (
	"slices"
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
	// OutcomeUnknown marks responses whose verdict was not observable:
	// those of a plain extender behind EngineSession's adapter.
	Outcome Outcome
	// RerunNs is this job's share of the host rerun time that followed its
	// batch's speculate-and-check interval (see BatchInfo): positive exactly
	// when the engine reran the job, zero otherwise. A batch's failed
	// checks rerun together in one interval (packed runs, each inside the
	// band its jobs' scores allow), so the share is an equal split of that
	// interval — the shares of a batch sum to it exactly, and no single
	// job's rerun has a time of its own.
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
	// kernels with Config.Scoring: full band for Rerun and Extend, and on
	// the batch paths packed runs inside the band each job's scores allow.
	Fallback align.Extender
	// Stats, when non-nil, aggregates check outcomes (atomic counters, so
	// many Checkers may share one Stats).
	Stats *Stats

	ews *align.Workspace
	ems *editmachine.Workspace

	// mapper is set by ServeMapper: the session's results feed only
	// resolveSide, with end-clipping penalty clipPen.
	mapper  bool
	clipPen int

	// Batch scratch (grow-only): per-job banded results, boundaries and
	// reports for checkJobs, the jobs it hands the kernel (kjobs, their
	// positions kidx, their results kres and boundaries kbds), the Job
	// slice ExtendBatchInto builds from its Requests, and the failed
	// subset of a batch with its sort keys, positions and rerun results
	// for rerunFailed.
	bjobs     []align.Job
	bres      []align.ExtendResult
	bbds      []align.BandBoundary
	breps     []Report
	kjobs     []align.Job
	kidx      []int
	kres      []align.ExtendResult
	kbds      []align.BandBoundary
	certified int // jobs of the last checkJobs the gapless certificate answered
	rkeys     []uint64
	rjobs     []align.Job
	ridx      []int
	rres      []align.ExtendResult
	full      fullBandSession // the Rerun extender when Fallback is nil, on ews
	last      BatchInfo
}

// NewChecker returns a Checker for cfg with pre-created workspaces.
func NewChecker(cfg Config) *Checker {
	return &Checker{Config: cfg, ews: align.NewWorkspace(), ems: editmachine.NewWorkspace()}
}

var _ align.Extender = (*Checker)(nil)

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

// ServeMapper states that every result of this session feeds only
// BWA-MEM's end decision (bwamem.resolveSide) under end-clipping penalty
// clipPenalty; bwamem's NewMapper calls it on the session it mints. From
// then on the batch paths (ExtendJobs, ExtendBatchInto, CheckBatch) keep
// exact only what that decision reads, not all five fields: a failed
// check whose banded result already resolves as a full-band one would is
// not rerun (outcome PassResolve), and the other failures rerun inside
// the narrower band the decision needs (rerunBand). A negative penalty is
// treated as 0, which is sound for it.
func (c *Checker) ServeMapper(clipPenalty int) {
	c.mapper, c.clipPen = true, max(clipPenalty, 0)
}

// rerunBand is the band a rerun of job needs given its banded result res,
// which holds lower bounds on both optima: every path that reaches an
// optimum the consumer reads scores at least s, so it has total gap
// length at most Scoring.PathBand(s) and a rerun inside that band
// returns the full-band values (DESIGN.md §4). For the five fields s is
// the lower of the banded Global and Local (Global, unless a row-0
// right-edge cell wins, which takes Mismatch > GapOpen+GapExtend); for a
// mapper it may rise to Local - clipPen, below which resolveSide never
// reads Global. A band of max(n, m) or more is the full band; so is the
// answer when gaps are free.
func (c *Checker) rerunBand(j align.Job, res align.ExtendResult) int {
	n, m := len(j.Q), len(j.T)
	s := min(res.Global, res.Local)
	if c.mapper {
		s = max(s, res.Local-c.clipPen)
	}
	b := c.Config.Scoring.PathBand(j.H0, n, m, max(s, 1))
	if full := max(n, m); b < 0 || b > full {
		return full
	}
	return b
}

// rerunGroup is how many failed jobs share one rerun sweep: the native
// tier's sixteen lanes.
const rerunGroup = 16

// rerunFailed reruns the jobs whose report did not pass, after checkJobs
// left their banded results in c.bres. Through a set Fallback they go as
// one batch; by default each reruns inside its rerunBand: the failures
// are sorted by that band and every run of up to rerunGroup of them is
// swept as one packed batch at the run's largest band (a wider band than
// a job needs returns the same values). It returns the failed jobs'
// positions, in rerun order (ascending band, then position), and their
// results, both aliasing checker scratch.
func (c *Checker) rerunFailed(jobs []align.Job, reps []Report) ([]int, []align.ExtendResult) {
	c.rkeys = c.rkeys[:0]
	for i := range reps {
		if !reps[i].Pass {
			band := 0
			if c.Fallback == nil {
				band = c.rerunBand(jobs[i], c.bres[i])
			}
			c.rkeys = append(c.rkeys, uint64(band)<<32|uint64(i))
		}
	}
	if len(c.rkeys) == 0 {
		return nil, nil
	}
	slices.Sort(c.rkeys)
	c.rjobs, c.ridx = c.rjobs[:0], c.ridx[:0]
	for _, key := range c.rkeys {
		i := int(uint32(key))
		c.rjobs = append(c.rjobs, jobs[i])
		c.ridx = append(c.ridx, i)
	}
	if c.Fallback != nil {
		c.rres = align.ExtendJobs(c.Fallback, c.rjobs, c.rres[:0])
		return c.ridx, c.rres
	}
	c.rres = slices.Grow(c.rres[:0], len(c.rjobs))[:len(c.rjobs)]
	for lo := 0; lo < len(c.rjobs); lo += rerunGroup {
		hi := min(lo+rerunGroup, len(c.rjobs))
		band := int(c.rkeys[hi-1] >> 32)
		align.ExtendBandedBatchWS(c.ews, c.rjobs[lo:hi], c.Config.Scoring, band, c.rres[lo:hi], nil)
	}
	if c.Stats != nil {
		var swept, full int64
		for k, j := range c.rjobs {
			swept += c.rres[k].Cells
			full += int64(len(j.Q)) * int64(len(j.T))
		}
		c.Stats.RerunCells.Add(swept)
		c.Stats.RerunFullCells.Add(full)
	}
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

// checkJobs is the batched speculate-and-check core. The gapless
// certificate (align.GaplessExtend) answers the jobs whose diagonal
// provably wins, whenever check gives the certified result a
// threshold-only pass: that is the report the banded result gets too,
// since the band holds the diagonal and the threshold rungs read no
// boundary. The remaining jobs run as one packed banded extension (the
// SWAR kernels fill lanes across jobs, the software analogue of the
// accelerator's systolic batch), then the optimality checks per job; for
// a mapper (ServeMapper), a failure whose rerunBand is within the band
// already resolves exactly and passes as PassResolve. Results land in
// c.bres, boundaries in c.bbds, reports in the returned slice (aliasing
// c.breps; everything is valid until the next batch call on this
// Checker). No stats, no reruns — each entry point layers its own policy
// on top.
func (c *Checker) checkJobs(jobs []align.Job) []Report {
	c.init()
	c.bres = slices.Grow(c.bres[:0], len(jobs))[:len(jobs)]
	c.bbds = slices.Grow(c.bbds[:0], len(jobs))[:len(jobs)]
	c.breps = slices.Grow(c.breps[:0], len(jobs))[:len(jobs)]
	c.kjobs, c.kidx = c.kjobs[:0], c.kidx[:0]
	for i, j := range jobs {
		if res, ok := align.GaplessExtend(j.Q, j.T, j.H0, c.Config.Scoring); ok {
			if rep := check(c.ems, j.Q, j.T, j.H0, res, align.BandBoundary{}, c.Config); rep.ThresholdOnlyPass {
				c.bres[i], c.bbds[i], c.breps[i] = res, align.BandBoundary{}, rep
				continue
			}
		}
		c.kjobs = append(c.kjobs, j)
		c.kidx = append(c.kidx, i)
	}
	c.certified = len(jobs) - len(c.kjobs)
	c.kres = slices.Grow(c.kres[:0], len(c.kjobs))[:len(c.kjobs)]
	c.kbds = slices.Grow(c.kbds[:0], len(c.kjobs))[:len(c.kjobs)]
	align.ExtendBandedBatchWS(c.ews, c.kjobs, c.Config.Scoring, c.Config.Band, c.kres, c.kbds)
	for k, i := range c.kidx {
		j := &jobs[i]
		c.bres[i], c.bbds[i] = c.kres[k], c.kbds[k]
		rep := check(c.ems, j.Q, j.T, j.H0, c.bres[i], c.bbds[i], c.Config)
		if !rep.Pass && c.mapper && c.rerunBand(*j, c.bres[i]) <= c.Config.Band {
			rep.Outcome, rep.Pass = PassResolve, true
		}
		c.breps[i] = rep
	}
	return c.breps
}

// ExtendBatchInto is ExtendBatch reusing dst's backing array when it is
// large enough — the allocation-free form for long-lived workers. The
// certificate and the speculative banded extensions of the whole batch
// (one packed kernel invocation) and the checks are timed as the batch's
// LastBatch interval; the failed checks then rerun together (see
// rerunFailed), and that one interval is split evenly over their RerunNs.
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
	c.Stats.Certified.Add(int64(c.certified))
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
// the rerun happens (ExtendBatchInto reruns them together right after;
// seedex-bench and the repository benchmark's layer replay time this
// half alone). The returned reports alias checker scratch, valid until
// the next batch call; stats are not recorded.
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
