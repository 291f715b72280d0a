package core

import (
	"seedex/internal/align"
)

// SeedEx is the speculative extender: narrow-band extension plus the
// optimality-check workflow, with a host fallback for the extensions whose
// optimality cannot be proven. In ModeStrict its results are bit-identical
// to running Fallback on everything — the property the paper validates
// against BWA-MEM over 787M reads, reproduced here as a tested invariant.
type SeedEx struct {
	Config Config
	// Fallback performs the host rerun; nil selects the software kernels
	// with Config.Scoring (full band per job; on the batch path, inside the
	// band each job's scores allow — see Checker).
	Fallback align.Extender
	// Stats, when non-nil, aggregates check outcomes.
	Stats *Stats
}

// New returns a SeedEx extender with the given band in ModeStrict with
// BWA-MEM default scoring — the configuration whose output is
// bit-equivalent to full-band alignment.
func New(band int) *SeedEx {
	return &SeedEx{
		Config: Config{Band: band, Scoring: align.DefaultScoring(), Kind: SemiGlobal, Mode: ModeStrict},
		Stats:  NewStats(),
	}
}

var _ align.Extender = (*SeedEx)(nil)

// Extend implements align.Extender.
func (s *SeedEx) Extend(query, target []byte, h0 int) align.ExtendResult {
	res, rep := Check(query, target, h0, s.Config)
	if s.Stats != nil {
		s.Stats.record(rep)
	}
	if rep.Pass {
		return res
	}
	if s.Fallback != nil {
		return s.Fallback.Extend(query, target, h0)
	}
	return align.Extend(query, target, h0, s.Config.Scoring)
}

// ExtendJobs implements align.BatchExtender with pooled scratch: the
// whole batch's banded extensions run as one packed kernel invocation,
// then checks, stats and reruns per job (identical results to Extend).
func (s *SeedEx) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	c := checkerPool.Get().(*Checker)
	c.Config, c.Fallback, c.Stats = s.Config, s.Fallback, s.Stats
	dst = c.ExtendJobs(jobs, dst)
	checkerPool.Put(c)
	return dst
}

var _ align.BatchExtender = (*SeedEx)(nil)

// Session returns a Checker bound to this extender's configuration,
// fallback and stats: a per-goroutine extension session whose scratch
// memory (DP rows, query profile, edit-machine row) is reused across
// calls. Results are identical to Extend; stats still aggregate into the
// shared (atomic) counters.
func (s *SeedEx) Session() align.Extender {
	return &Checker{Config: s.Config, Fallback: s.Fallback, Stats: s.Stats}
}

// FullBand is the host reference extender: the full-width software kernel.
type FullBand struct {
	Scoring align.Scoring
}

var _ align.Extender = FullBand{}

// Extend implements align.Extender.
func (f FullBand) Extend(query, target []byte, h0 int) align.ExtendResult {
	return align.Extend(query, target, h0, f.Scoring)
}

// ExtendJobs implements align.BatchExtender with pooled scratch.
func (f FullBand) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	ws := align.GetWorkspace()
	dst = extendJobsFull(ws, jobs, f.Scoring, dst)
	align.PutWorkspace(ws)
	return dst
}

var _ align.BatchExtender = FullBand{}

// Session returns a workspace-holding full-band session.
func (f FullBand) Session() align.Extender {
	return &fullBandSession{sc: f.Scoring, ws: align.NewWorkspace()}
}

type fullBandSession struct {
	sc align.Scoring
	ws *align.Workspace
}

func (f *fullBandSession) Extend(query, target []byte, h0 int) align.ExtendResult {
	return align.ExtendWS(f.ws, query, target, h0, f.sc)
}

// ExtendJobs implements align.BatchExtender: the batch runs through the
// packed full-width kernels on the session's workspace.
func (f *fullBandSession) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	return extendJobsFull(f.ws, jobs, f.sc, dst)
}

var _ align.BatchExtender = (*fullBandSession)(nil)

func extendJobsFull(ws *align.Workspace, jobs []align.Job, sc align.Scoring, dst []align.ExtendResult) []align.ExtendResult {
	if cap(dst) < len(jobs) {
		dst = make([]align.ExtendResult, len(jobs))
	}
	dst = dst[:len(jobs)]
	align.ExtendBatchFullWS(ws, jobs, sc, dst)
	return dst
}

// Banded is a plain banded extender with no optimality checks — the
// "BSW heuristic" whose output differences the paper's Figure 13 counts.
type Banded struct {
	Scoring align.Scoring
	Band    int
}

var _ align.Extender = Banded{}

// Extend implements align.Extender.
func (b Banded) Extend(query, target []byte, h0 int) align.ExtendResult {
	res, _ := align.ExtendBanded(query, target, h0, b.Scoring, b.Band)
	return res
}

// ExtendJobs implements align.BatchExtender with pooled scratch.
func (b Banded) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	ws := align.GetWorkspace()
	dst = extendJobsBanded(ws, jobs, b.Scoring, b.Band, dst)
	align.PutWorkspace(ws)
	return dst
}

var _ align.BatchExtender = Banded{}

// Session returns a workspace-holding banded session (no boundary copy:
// the heuristic discards it).
func (b Banded) Session() align.Extender {
	return &bandedSession{sc: b.Scoring, w: b.Band, ws: align.NewWorkspace()}
}

type bandedSession struct {
	sc align.Scoring
	w  int
	ws *align.Workspace
}

func (b *bandedSession) Extend(query, target []byte, h0 int) align.ExtendResult {
	res, _ := align.ExtendBandedWS(b.ws, query, target, h0, b.sc, b.w)
	return res
}

// ExtendJobs implements align.BatchExtender: the batch runs through the
// packed banded kernels on the session's workspace (no boundary capture).
func (b *bandedSession) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	return extendJobsBanded(b.ws, jobs, b.sc, b.w, dst)
}

var _ align.BatchExtender = (*bandedSession)(nil)

func extendJobsBanded(ws *align.Workspace, jobs []align.Job, sc align.Scoring, w int, dst []align.ExtendResult) []align.ExtendResult {
	if cap(dst) < len(jobs) {
		dst = make([]align.ExtendResult, len(jobs))
	}
	dst = dst[:len(jobs)]
	align.ExtendBandedBatchWS(ws, jobs, sc, w, dst, nil)
	return dst
}
