// Package core implements the SeedEx speculation-and-test framework — the
// paper's primary contribution (§III). A seed extension is speculatively
// run on a narrow-band kernel; three optimality checks then prove, or fail
// to prove, that no alignment path outside the band could have beaten the
// narrow-band result. Extensions whose optimality cannot be proven are
// rerun on the host inside a band that provably holds the full-band
// optimum, so the overall system is exactly as accurate as a full-band
// aligner while almost all work runs on the cheap narrow-band machine.
//
// The three checks, in workflow order (Figure 6 of the paper):
//
//  1. Thresholding: closed-form upper bounds S1 (best score obtainable
//     through the above-band region) and S2 (best score obtainable through
//     the below-band region). score_nb > S2 proves optimality outright;
//     score_nb <= S1 aborts to a rerun.
//  2. E-score check: every path crossing into the below-band region does so
//     through the E (vertical-gap) channel at the band's lower boundary;
//     bounding each crossing by its E-score plus an all-match continuation
//     yields score_maxE, which must stay below score_nb.
//  3. Edit-distance check: a relaxed-scoring DP sweep over the below-band
//     trapezoid (the edit machine, internal/editmachine) bounds paths
//     entering the region from the left; its score_ed must stay below
//     score_nb.
//
// Two checking modes are provided. ModePaper follows the paper's workflow
// verbatim and guarantees the narrow-band *local* result. ModeStrict adds
// a continuation-aware region bound (covering paths that dip below the
// band and re-enter it) and a global-endpoint guard, and guarantees that
// the full extension result — local and global scores *and* positions —
// is bit-identical to a full-band run. See DESIGN.md §4 for why the extra
// conditions are needed, and why strict mode's region bound is a closed
// form (belowBound) that needs no sweep.
//
// The batch paths of Checker do only the DP their consumer reads, by
// three exact shortcuts (DESIGN.md §4, "why it is exact"): the gapless
// certificate answers, without a matrix, the jobs whose main diagonal
// provably wins; a failed check reruns inside the band its banded scores
// allow (Scoring.PathBand), not over the full band; and a session serving
// the mapper (Checker.ServeMapper) skips the reruns whose banded result
// already resolves the mapper's end decision exactly (PassResolve).
package core

import (
	"fmt"

	"seedex/internal/align"
	"seedex/internal/editmachine"
)

// intMax is a small helper for bound arithmetic.
func intMax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AlignKind selects the threshold formulas.
type AlignKind int

// Alignment kinds targeted by SeedEx (paper footnote 1).
const (
	SemiGlobal AlignKind = iota // gaps at one end free (BWA-MEM seed extension)
	Global                      // end-to-end; gap terms doubled in S1/S2
)

// Mode selects the checking discipline.
type Mode int

const (
	// ModePaper runs the checks exactly as §III describes, comparing each
	// bound against the narrow-band local maximum. It guarantees the
	// local result; the edit machine is corner-seeded with S1.
	ModePaper Mode = iota
	// ModeStrict additionally covers band-re-entering paths and the
	// global (right-edge) endpoint, guaranteeing the full result is
	// bit-identical to a full-band run. The region bound is that of an
	// edit machine seeded with the exact column-0 arrival bounds and the
	// captured boundary E-scores, evaluated in closed form (belowBound).
	ModeStrict
)

// Thresholds are the theoretical upper-bound scores of Theorem 1.
type Thresholds struct {
	// S1 bounds any score obtained through the above-band region: one
	// w-long gap plus an all-match continuation of the remaining query.
	S1 int
	// S2 bounds any score obtained through the below-band region: one
	// w-long gap, but the whole query still available to match.
	S2 int
}

// ComputeThresholds evaluates equations (4) and (5) of the paper for a
// query of length qlen, seed score h0 and band w. For Global alignment the
// gap terms are doubled, as §III-A prescribes.
func ComputeThresholds(qlen, h0, w int, sc align.Scoring, kind AlignKind) Thresholds {
	gapOpen, gapExt := sc.GapOpen, sc.GapExtend
	if kind == Global {
		gapOpen *= 2
		gapExt *= 2
	}
	gap := gapOpen + w*gapExt
	return Thresholds{
		S1: h0 - gap + (qlen-w)*sc.Match,
		S2: h0 - gap + qlen*sc.Match,
	}
}

// MaxEScore evaluates equation (6): the optimistic bound over every live
// E-score crossing the band's lower boundary, each extended by an
// all-match continuation of the query remaining at its column. Dead
// crossings (E = 0) admit no path and are skipped. The boolean is false
// when no live crossing exists (the check passes trivially).
func MaxEScore(boundary align.BandBoundary, qlen int, sc align.Scoring) (int, bool) {
	best, live := 0, false
	for j, e := range boundary.E {
		if e <= 0 {
			continue
		}
		if v := e + (qlen-j)*sc.Match; !live || v > best {
			best, live = v, true
		}
	}
	return best, live
}

// Outcome classifies one pass through the check workflow.
type Outcome int

// OutcomeUnknown marks a Response whose check verdict was not observable
// by the consumer: the responses of a plain extender behind
// EngineSession's adapter, which runs no checks. It is never recorded
// into Stats.
const OutcomeUnknown Outcome = -1

// Outcomes, in workflow order.
const (
	// PassFullCover: the band covers the whole DP matrix, so the banded
	// run is the full run.
	PassFullCover Outcome = iota
	// PassS2: score_nb beat the stricter threshold; optimal outright.
	PassS2
	// PassChecks: score_nb was between S1 and S2 and both the E-score and
	// edit-distance checks passed.
	PassChecks
	// FailS1: score_nb <= S1; the score is so low a better path may exist
	// almost anywhere. Rerun.
	FailS1
	// FailE: the E-score check could not exclude a better below-band
	// path entering from the top. Rerun.
	FailE
	// FailEdit: the edit-distance check could not exclude a better
	// below-band path entering from the left. Rerun.
	FailEdit
	// FailGlobal (ModeStrict only): the local result is proven optimal
	// but the global (right-edge) endpoint could not be proven. Rerun.
	FailGlobal
	// PassResolve (mapper sessions only, see Checker.ServeMapper): the
	// checks failed, but the banded result's own scores bound every path
	// that could change what bwamem.resolveSide reads inside the band, so
	// the mapper's end decision is the full-band one. No rerun.
	PassResolve

	// outcomeEnd is one past the last outcome; it sizes the counters.
	outcomeEnd
)

// String renders the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeUnknown:
		return "unknown"
	case PassFullCover:
		return "pass-full-cover"
	case PassS2:
		return "pass-s2"
	case PassChecks:
		return "pass-checks"
	case FailS1:
		return "fail-s1"
	case FailE:
		return "fail-e"
	case FailEdit:
		return "fail-edit"
	case FailGlobal:
		return "fail-global"
	case PassResolve:
		return "pass-resolve"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Report carries every intermediate of one check workflow; the benchmark
// harness aggregates these into the paper's Figure 14.
type Report struct {
	Outcome   Outcome
	Pass      bool // optimality proven; narrow-band result usable
	Th        Thresholds
	ScoreNB   int  // best narrow-band score (local maximum in the band)
	ScoreMaxE int  // E-score check bound (0 if no live crossing)
	ELive     bool // a live boundary crossing existed
	ERan      bool // workflow reached the E-score check
	EditRan   bool // workflow reached the edit-distance check (ModeStrict: its closed form, no sweep)
	ScoreEd   int  // bound that check compared (valid only when EditRan): in ModeStrict belowBound; in ModePaper, on FailEdit only, the region score >= ScoreNB the edit machine stopped at
	// ThresholdOnlyPass is true when thresholding alone proved optimality
	// (the "Thresholding" series of Figure 14).
	ThresholdOnlyPass bool
}

// Config parameterizes the SeedEx checker.
type Config struct {
	Band    int           // narrow band width w
	Scoring align.Scoring // affine scheme of the BSW machine
	Kind    AlignKind     // threshold formula variant
	Mode    Mode          // ModePaper or ModeStrict
}

// Check speculatively extends query against target with the narrow band
// and runs the optimality-check workflow, returning the banded result and
// a full report. The caller decides what to do on !report.Pass (typically:
// rerun with the full band). Scratch comes from a shared Checker pool; hot
// callers should hold a Checker and use its Check method.
func Check(query, target []byte, h0 int, cfg Config) (align.ExtendResult, Report) {
	c := checkerPool.Get().(*Checker)
	c.Config = cfg
	res, rep := c.Check(query, target, h0)
	checkerPool.Put(c)
	return res, rep
}

func check(ems *editmachine.Workspace, query, target []byte, h0 int, res align.ExtendResult, bd align.BandBoundary, cfg Config) Report {
	n, m := len(query), len(target)
	w := cfg.Band
	sc := cfg.Scoring
	rep := Report{ScoreNB: res.Local}

	// Degenerate coverage: the band holds every cell; banded == full.
	if w >= n && w >= m {
		rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = PassFullCover, true, true
		return rep
	}

	rep.Th = ComputeThresholds(n, h0, w, sc, cfg.Kind)
	switch {
	case res.Local <= rep.Th.S1:
		rep.Outcome = FailS1
		return rep
	case res.Local > rep.Th.S2:
		rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = PassS2, true, true
		if cfg.Mode == ModeStrict {
			return strictGlobal(n, m, h0, res, cfg, rep)
		}
		return rep
	}

	// S1 < score_nb <= S2: a better path could exist in the below-band
	// region (Lemma 2); run the additional checks.
	rep.ERan = true
	rep.ScoreMaxE, rep.ELive = MaxEScore(bd, n, sc)
	if rep.ELive && rep.ScoreMaxE >= res.Local {
		rep.Outcome = FailE
		return rep
	}

	rep.EditRan = true
	if cfg.Mode == ModePaper {
		// Only score_ed >= score_nb is read, so the sweep stops once that is
		// decided (editmachine.CornerReachesWS).
		r := editmachine.CornerReachesWS(ems, query, target, w, rep.Th.S1, res.Local, editmachine.CanonicalRelaxed)
		if r.Reached {
			rep.Outcome, rep.ScoreEd = FailEdit, r.Score
			return rep
		}
		rep.Outcome, rep.Pass = PassChecks, true
		return rep
	}
	// ModeStrict: the continuation-aware region bound, which also covers
	// paths that dip below the band and re-enter it before ending.
	if below, ok := belowBound(n, m, w, h0, sc); ok {
		rep.ScoreEd = below
		if below >= res.Local {
			rep.Outcome = FailEdit
			return rep
		}
	}
	rep.Outcome, rep.Pass = PassChecks, true
	return strictGlobal(n, m, h0, res, cfg, rep)
}

// belowBound is strict mode's bound on every affine path that ever visits
// the below-band region of an n x m extension, all-match continuation
// included: h0 - go - (w+1)*ge + n*match. It is the closed form of
// editmachine.SweepExact's ScorePlusCont, whose maximum always sits on
// the first region cell (w+1, 0) (proof in DESIGN.md §4). ok is false
// when the region has no cells (the sweep's Empty).
func belowBound(n, m, w, h0 int, sc align.Scoring) (bound int, ok bool) {
	if w < 0 || m <= w {
		return 0, false
	}
	return h0 - sc.GapOpen - (w+1)*sc.GapExtend + n*sc.Match, true
}

// strictGlobal verifies the global (right-edge) endpoint in ModeStrict:
// every path that ever leaves the band must be provably unable to beat the
// banded global score at the right edge.
func strictGlobal(n, m, h0 int, res align.ExtendResult, cfg Config, rep Report) Report {
	sc := cfg.Scoring
	w := cfg.Band

	// Below-band side: continuation-aware region bound.
	bound, _ := belowBound(n, m, w, h0, sc)
	// Above-band side: any path crossing the upper boundary spent at
	// least a (w+1)-insertion gap and can match at most the remaining
	// query: h0 - go - (w+1)*ge + (n-w-1)*m.
	if n > w {
		bound = intMax(bound, h0-sc.GapOpen-(w+1)*sc.GapExtend+(n-w-1)*sc.Match)
	}
	if bound > 0 && bound >= res.Global {
		rep.Outcome, rep.Pass = FailGlobal, false
		rep.ThresholdOnlyPass = false
	}
	return rep
}
