package core

import (
	"seedex/internal/align"
	"seedex/internal/editmachine"
)

// checkPaperSweepRef is the paper-mode check workflow as it stood before
// the goal-directed edit check — the ModePaper ladder of check verbatim,
// its edit check reading the whole-region Score of
// editmachine.SweepCornerWS — kept as the reference that
// editmachine.CornerReachesWS must reproduce verdict for verdict.
func checkPaperSweepRef(ems *editmachine.Workspace, query, target []byte, h0 int, res align.ExtendResult, bd align.BandBoundary, cfg Config) Report {
	n, m := len(query), len(target)
	w := cfg.Band
	rep := Report{ScoreNB: res.Local}
	if w >= n && w >= m {
		rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = PassFullCover, true, true
		return rep
	}
	rep.Th = ComputeThresholds(n, h0, w, cfg.Scoring, cfg.Kind)
	switch {
	case res.Local <= rep.Th.S1:
		rep.Outcome = FailS1
		return rep
	case res.Local > rep.Th.S2:
		rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = PassS2, true, true
		return rep
	}
	rep.ERan = true
	rep.ScoreMaxE, rep.ELive = MaxEScore(bd, n, cfg.Scoring)
	if rep.ELive && rep.ScoreMaxE >= res.Local {
		rep.Outcome = FailE
		return rep
	}
	rep.EditRan = true
	sw := editmachine.SweepCornerWS(ems, query, target, w, rep.Th.S1, editmachine.CanonicalRelaxed)
	if !sw.Empty {
		rep.ScoreEd = sw.Score
		if sw.Score >= res.Local {
			rep.Outcome = FailEdit
			return rep
		}
	}
	rep.Outcome, rep.Pass = PassChecks, true
	return rep
}

// samePaperVerdict compares two paper-mode reports except for ScoreEd,
// which the goal-directed sweep sets only on FailEdit, to the score it
// stopped at: at least ScoreNB and at most the region maximum.
func samePaperVerdict(got, ref Report) bool {
	if got.Outcome == FailEdit && (got.ScoreEd < got.ScoreNB || got.ScoreEd > ref.ScoreEd) ||
		got.Outcome != FailEdit && got.ScoreEd != 0 {
		return false
	}
	got.ScoreEd, ref.ScoreEd = 0, 0
	return got == ref
}
