package core

import (
	"math/rand"
	"slices"
	"testing"

	"seedex/internal/align"
)

// The three shortcuts of the batch paths (DESIGN.md §4, "why it is
// exact") proven on a closed universe rather than sampled: every query of
// length <= 4 over {A,C,G,T} plus one holding an N, against every target
// of length <= 6, from h0 in {1, 2, 5, 12}, at bands 1..3, under the
// default scoring and one with GapExtend 2. align.ExtendRef is the
// full-band reference throughout.
//
// The scores only ask whether two bases are equal and unambiguous, so
// renaming the four bases in both sequences at once changes no result:
// the queries are enumerated up to that renaming (each base first used in
// the order A, C, G, T), which covers every pair of the universe.

var (
	universeScorings = []align.Scoring{align.DefaultScoring(), {Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 2}}
	universeH0s      = []int{1, 2, 5, 12}
	universeBands    = []int{1, 2, 3}
	universeClips    = []int{0, 5}
)

// universeQueries returns the canonical queries of length <= 4 (a base
// appears only after every lower one has) and one query with an N.
func universeQueries() [][]byte {
	out := [][]byte{{}}
	for lo := 0; lo < len(out); lo++ {
		q := out[lo]
		if len(q) == 4 {
			continue
		}
		next := byte(0)
		for _, b := range q {
			next = max(next, b+1)
		}
		for b := byte(0); b <= min(next, 3); b++ {
			out = append(out, append(append([]byte(nil), q...), b))
		}
	}
	return append(out, []byte{0, 4, 1, 0})
}

// universeTargets returns every target of length <= 6 over {A,C,G,T}.
func universeTargets() [][]byte {
	out := [][]byte{{}}
	for lo := 0; lo < len(out); lo++ {
		if t := out[lo]; len(t) < 6 {
			for b := byte(0); b < 4; b++ {
				out = append(out, append(append([]byte(nil), t...), b))
			}
		}
	}
	return out
}

// resolved is what bwamem.resolveSide reads of an extension result under
// clip penalty clip — the contract Checker.ServeMapper relies on: the
// global endpoint when Global > 0 and Global >= Local - clip, else the
// local triple (or nothing, when Local <= 0).
func resolved(r align.ExtendResult, clip int) [3]int {
	switch {
	case r.Global > 0 && r.Global >= r.Local-clip:
		return [3]int{r.Global, -1, r.GlobalT}
	case r.Local <= 0:
		return [3]int{}
	}
	return [3]int{r.Local, r.LocalQ, r.LocalT}
}

// shortcutHarness asserts the three statements batch by batch, with
// scratch reused across batches, and counts how often each was exercised.
type shortcutHarness struct {
	ws    *align.Workspace
	bres  []align.ExtendResult
	bbds  []align.BandBoundary
	every []Report // no job passes: rerunFailed reruns them all

	jobs, certified, reruns, waived, mapperReruns int
	// editPass and editFail count the paper-mode edit checks by verdict.
	editPass, editFail int
}

// check asserts, on one batch of jobs at band w with full-band results
// ref:
//
//	(i)   a job the gapless certificate answers has ref's five fields, and
//	      check gives the certified result the report it gives the banded
//	      one (a threshold-only pass) in both modes, so strict checkJobs
//	      returns the banded workflow's results and reports;
//	(ii)  every job rerun at its rerunBand, in rerunFailed's packed runs,
//	      has ref's five fields;
//	(iii) for a mapper with clip penalty 0 or 5, a PassResolve job's banded
//	      result, and every job rerun at the mapper's rerunBand, resolve as
//	      ref resolves;
//	(iv)  paper mode's goal-directed edit check gives every banded job the
//	      verdict of the whole-region sweep (checkPaperSweepRef).
func (h *shortcutHarness) check(t *testing.T, jobs []align.Job, ref []align.ExtendResult, sc align.Scoring, w int) {
	t.Helper()
	if h.ws == nil {
		h.ws = align.NewWorkspace()
	}
	h.bres = slices.Grow(h.bres[:0], len(jobs))[:len(jobs)]
	h.bbds = slices.Grow(h.bbds[:0], len(jobs))[:len(jobs)]
	h.every = slices.Grow(h.every[:0], len(jobs))[:len(jobs)]
	align.ExtendBandedBatchWS(h.ws, jobs, sc, w, h.bres, h.bbds)
	cfg := Config{Band: w, Scoring: sc, Kind: SemiGlobal, Mode: ModeStrict}
	paper := cfg
	paper.Mode = ModePaper
	c := NewChecker(cfg)
	reps := c.checkJobs(jobs)
	for i, j := range jobs {
		want := check(c.ems, j.Q, j.T, j.H0, h.bres[i], h.bbds[i], cfg)
		if !sameResult(c.bres[i], h.bres[i]) || reps[i] != want {
			t.Fatalf("w=%d q=%v t=%v h0=%d %+v: checkJobs %+v %+v, the banded workflow %+v %+v",
				w, j.Q, j.T, j.H0, sc, c.bres[i], reps[i], h.bres[i], want)
		}
		if !reps[i].Pass {
			h.reruns++
		}
		wantPaper := check(c.ems, j.Q, j.T, j.H0, h.bres[i], h.bbds[i], paper)
		if ref := checkPaperSweepRef(c.ems, j.Q, j.T, j.H0, h.bres[i], h.bbds[i], paper); !samePaperVerdict(wantPaper, ref) {
			t.Fatalf("w=%d q=%v t=%v h0=%d %+v: paper report %+v, whole-sweep reference %+v",
				w, j.Q, j.T, j.H0, sc, wantPaper, ref)
		}
		switch wantPaper.Outcome {
		case PassChecks:
			h.editPass++
		case FailEdit:
			h.editFail++
		}
		cert, ok := align.GaplessExtend(j.Q, j.T, j.H0, sc)
		if !ok {
			continue
		}
		h.certified++
		gotPaper := check(c.ems, j.Q, j.T, j.H0, cert, align.BandBoundary{}, paper)
		if !sameResult(cert, ref[i]) || !want.ThresholdOnlyPass || gotPaper != wantPaper {
			t.Fatalf("w=%d q=%v t=%v h0=%d %+v: certified %+v (strict %v, paper %v; banded paper %v), full band %+v",
				w, j.Q, j.T, j.H0, sc, cert, want.Outcome, gotPaper.Outcome, wantPaper.Outcome, ref[i])
		}
	}
	h.jobs += len(jobs)
	idx, rr := c.rerunFailed(jobs, h.every)
	for k, i := range idx {
		if !sameResult(rr[k], ref[i]) {
			j := jobs[i]
			t.Fatalf("w=%d q=%v t=%v h0=%d %+v: rerun at band %d %+v, full band %+v",
				w, j.Q, j.T, j.H0, sc, c.rerunBand(j, c.bres[i]), rr[k], ref[i])
		}
	}

	for _, clip := range universeClips {
		c.ServeMapper(clip)
		reps := c.checkJobs(jobs)
		for i, j := range jobs {
			switch reps[i].Outcome {
			case PassResolve:
				h.waived++
				if got, want := resolved(c.bres[i], clip), resolved(ref[i], clip); got != want {
					t.Fatalf("clip %d w=%d q=%v t=%v h0=%d %+v: waived %+v resolves to %v, full band %+v to %v",
						clip, w, j.Q, j.T, j.H0, sc, c.bres[i], got, ref[i], want)
				}
			default:
				if !reps[i].Pass {
					h.mapperReruns++
				}
			}
		}
		idx, rr := c.rerunFailed(jobs, h.every)
		for k, i := range idx {
			if got, want := resolved(rr[k], clip), resolved(ref[i], clip); got != want {
				j := jobs[i]
				t.Fatalf("clip %d w=%d q=%v t=%v h0=%d %+v: rerun at band %d resolves to %v, full band %+v to %v",
					clip, w, j.Q, j.T, j.H0, sc, c.rerunBand(j, c.bres[i]), got, ref[i], want)
			}
		}
	}
}

// TestShortcutsUniverse runs the harness over the whole universe: one
// batch per query, scoring and h0 holding every target.
func TestShortcutsUniverse(t *testing.T) {
	targets := universeTargets()
	jobs := make([]align.Job, len(targets))
	ref := make([]align.ExtendResult, len(targets))
	var h shortcutHarness
	for _, sc := range universeScorings {
		for _, h0 := range universeH0s {
			for _, q := range universeQueries() {
				for i, tg := range targets {
					jobs[i] = align.Job{Q: q, T: tg, H0: h0}
					ref[i] = align.ExtendRef(q, tg, h0, sc)
				}
				for _, w := range universeBands {
					h.check(t, jobs, ref, sc, w)
				}
			}
		}
	}
	t.Logf("%d jobs: %d certified, %d strict failures rerun; as a mapper %d waived, %d rerun; paper edit checks %d passed, %d failed",
		h.jobs, h.certified, h.reruns, h.waived, h.mapperReruns, h.editPass, h.editFail)
	if h.certified == 0 || h.reruns == 0 || h.waived == 0 || h.mapperReruns == 0 || h.editPass == 0 || h.editFail == 0 {
		t.Fatal("the universe does not exercise every statement")
	}
}

// FuzzRerunBand runs the harness on harvest-shaped batches (realistic and
// adversarial extensions, so the packed kernels run lane groups), the
// first job replaced by one built from raw bytes when there are any, at
// any band in 1..41 under one of four scorings.
func FuzzRerunBand(f *testing.F) {
	f.Add(int64(1), []byte(nil), 20, uint8(0))
	f.Add(int64(2), []byte("ACGTACGTTTGACCAGTACGATTTACGACCGTA"), 5, uint8(1))
	f.Add(int64(3), []byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 3, 2, 1, 0, 1, 2, 3, 0}, 1, uint8(2))
	f.Add(int64(4), []byte(nil), 41, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, band int, scIdx uint8) {
		rng := rand.New(rand.NewSource(seed))
		sc := []align.Scoring{
			align.DefaultScoring(),
			{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 2},
			{Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2},
			{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1},
		}[int(scIdx)%4]
		var jobs []align.Job
		for k := 0; k < 24; k++ {
			q, tg, h0 := realisticCase(rng)
			if k%3 == 1 {
				q, tg, h0 = adversarialCase(rng)
			}
			jobs = append(jobs, align.Job{Q: q, T: tg, H0: h0})
		}
		if len(raw) > 0 {
			q, tg := adversarialSeqs(raw[:min(len(raw), 300)])
			jobs[0] = align.Job{Q: q, T: tg, H0: 1 + rng.Intn(200)}
		}
		ref := make([]align.ExtendResult, len(jobs))
		for i, j := range jobs {
			ref[i] = align.ExtendRef(j.Q, j.T, j.H0, sc)
		}
		var h shortcutHarness
		h.check(t, jobs, ref, sc, fuzzBand(band, 41))
	})
}
