package core_test

import (
	"math/rand"
	"testing"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/editmachine"
)

// Paper mode's edit check stops its sweep once the verdict is known
// (editmachine.CornerReachesWS). These tests pin that the ladder returns
// the verdict of the whole-region sweep it replaced, on the closed-form
// corpus, through the scalar Check and the packed CheckBatch path the
// server runs.

func assertPaperVerdictIdentity(t *testing.T, aws *align.Workspace, ems *editmachine.Workspace, chk *core.Checker, p problem) core.Report {
	t.Helper()
	cfg := chk.Config
	res, bd := align.ExtendBandedWS(aws, p.q, p.t, p.h0, cfg.Scoring, cfg.Band)
	want := core.CheckPaperSweepRef(ems, p.q, p.t, p.h0, res, bd, cfg)
	gotRes, got := chk.Check(p.q, p.t, p.h0)
	if gotRes != res || !core.SamePaperVerdict(got, want) {
		t.Fatalf("w=%d sc=%+v kind=%v h0=%d: report %+v != whole-sweep reference %+v\n q=%v\n t=%v",
			cfg.Band, cfg.Scoring, cfg.Kind, p.h0, got, want, p.q, p.t)
	}
	_, reps := chk.CheckBatch([]core.Request{{Q: p.q, T: p.t, H0: p.h0}}, nil)
	if !core.SamePaperVerdict(reps[0], want) {
		t.Fatalf("w=%d sc=%+v kind=%v h0=%d: CheckBatch report %+v != whole-sweep reference %+v",
			cfg.Band, cfg.Scoring, cfg.Kind, p.h0, reps[0], want)
	}
	return got
}

func TestPaperVerdictIdentity(t *testing.T) {
	aws, ems := align.NewWorkspace(), editmachine.NewWorkspace()
	outcomes := map[core.Outcome]int{}
	for _, sc := range closedFormScorings {
		for _, kind := range []core.AlignKind{core.SemiGlobal, core.Global} {
			for _, w := range closedFormBands {
				chk := core.NewChecker(core.Config{Band: w, Scoring: sc, Kind: kind, Mode: core.ModePaper})
				for _, p := range closedFormCorpus(t) {
					outcomes[assertPaperVerdictIdentity(t, aws, ems, chk, p).Outcome]++
				}
			}
		}
	}
	// Both sides of the edit check, and every rung before it.
	for o := core.PassFullCover; o <= core.FailEdit; o++ {
		if outcomes[o] == 0 {
			t.Errorf("corpus never produced outcome %v (%v)", o, outcomes)
		}
	}
}

// FuzzPaperVerdictIdentity drives the identity from fuzz input, shaped as
// FuzzStrictClosedForm's: generator problems picked by seed or raw bytes,
// any band folded into 1..41, h0 corrupted by h0delta, every scoring of
// closedFormScorings, both threshold kinds.
func FuzzPaperVerdictIdentity(f *testing.F) {
	f.Add(int64(1), 5, 0, uint8(0), []byte(nil))
	f.Add(int64(2), 20, 500, uint8(1), []byte(nil))
	f.Add(int64(3), -242, -40, uint8(2), []byte(nil))
	f.Add(int64(4), 41, 100000, uint8(7), []byte(nil))
	f.Add(int64(5), 12, 0, uint8(4), []byte("ACGTACGTTTGACCAGTACGATTTACGACCGTA"))
	f.Add(int64(6), 2, 7, uint8(5), []byte{0, 1, 2, 3, 0xff, 0x7f, 9, 9, 9, 0, 1, 2, 3, 3, 3})
	aws, ems := align.NewWorkspace(), editmachine.NewWorkspace()
	f.Fuzz(func(t *testing.T, seed int64, band, h0delta int, cfgIdx uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		var p problem
		switch {
		case len(raw) > 0:
			p.q, p.t = core.AdversarialSeqs(raw[:min(len(raw), 400)])
			p.h0 = rng.Intn(300)
		case seed%3 == 0:
			p.q, p.t, p.h0 = core.RealisticCase(rng)
		case seed%3 == 1 || seed%3 == -1:
			p.q, p.t, p.h0 = core.AdversarialCase(rng)
		default:
			p.q, p.t, p.h0 = core.CorruptedCase(rng, 0)
		}
		if p.h0 += h0delta % (1 << 20); p.h0 < 0 {
			p.h0 = 0
		}
		kind := core.AlignKind(int(cfgIdx) / len(closedFormScorings) % 2)
		sc := closedFormScorings[int(cfgIdx)%len(closedFormScorings)]
		chk := core.NewChecker(core.Config{Band: core.FuzzBand(band, 41), Scoring: sc, Kind: kind, Mode: core.ModePaper})
		assertPaperVerdictIdentity(t, aws, ems, chk, p)
	})
}
