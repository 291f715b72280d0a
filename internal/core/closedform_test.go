package core_test

import (
	"math/rand"
	"sync"
	"testing"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/editmachine"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

// Strict mode replaced editmachine.SweepExactWS with the closed form
// core.belowBound (DESIGN.md §4). These tests pin the two halves of that
// replacement: the sweep's ScorePlusCont really is the constant, and the
// closed-form ladder returns the verdict the sweep-based ladder returned.

type problem struct {
	q, t []byte
	h0   int
}

// capture harvests the extension problems a pipeline dispatches.
type capture struct {
	mu    sync.Mutex
	probs []problem
}

func (c *capture) Extend(q, t []byte, h0 int) align.ExtendResult {
	c.mu.Lock()
	c.probs = append(c.probs, problem{append([]byte(nil), q...), append([]byte(nil), t...), h0})
	c.mu.Unlock()
	return align.Extend(q, t, h0, align.DefaultScoring())
}

var (
	corpusOnce sync.Once
	corpusVal  []problem
)

// closedFormCorpus is the shared problem set: readsim reads pushed through
// the bwamem pipeline (the shapes the server sees), the realistic and
// adversarial generators, near copies with h0 corrupted up and down, and
// raw-byte sequences.
func closedFormCorpus(tb testing.TB) []problem {
	corpusOnce.Do(func() {
		rng := rand.New(rand.NewSource(12))
		ref := genome.Simulate(genome.SimConfig{Length: 40_000, RepeatFraction: 0.05}, rng)
		rcfg := readsim.RealisticConfig(60)
		rcfg.ReadLen = 150
		reads := readsim.Simulate(ref, rcfg, rng)
		cp := &capture{}
		a, err := bwamem.New("chrSim", ref, cp)
		if err != nil {
			tb.Fatal(err)
		}
		pr := make([]bwamem.Read, len(reads))
		for i, r := range reads {
			pr[i] = bwamem.Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual}
		}
		a.Run(pr, 1)
		if len(cp.probs) < 50 {
			tb.Fatalf("harvested only %d extension problems", len(cp.probs))
		}
		out := cp.probs
		for i := 0; i < 150; i++ {
			q, t, h0 := core.RealisticCase(rng)
			out = append(out, problem{q, t, h0})
			q, t, h0 = core.AdversarialCase(rng)
			out = append(out, problem{q, t, h0})
		}
		for _, delta := range []int{-100000, -40, 0, 40, 500, 100000} {
			for i := 0; i < 10; i++ {
				q, t, h0 := core.CorruptedCase(rng, delta)
				out = append(out, problem{q, t, h0})
			}
		}
		for i := 0; i < 40; i++ {
			raw := make([]byte, 2+rng.Intn(200))
			rng.Read(raw)
			q, t := core.AdversarialSeqs(raw)
			out = append(out, problem{q, t, rng.Intn(300)})
		}
		out = append(out, problem{nil, nil, 10}, problem{[]byte{1}, nil, 10}, problem{nil, []byte{1, 2, 3}, 10})
		corpusVal = out
	})
	return corpusVal
}

var closedFormBands = []int{1, 2, 5, 12, 20, 24, 41}

// closedFormScorings: BWA-MEM's default plus non-default schemes, every
// one admissible for its relaxed counterpart (checked by the tests).
var closedFormScorings = []align.Scoring{
	align.DefaultScoring(),
	{Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2},
	{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1},
	{Match: 3, Mismatch: 8, GapOpen: 9, GapExtend: 4},
}

// assertClosedForm: the exact-seeded sweep's Empty and ScorePlusCont are
// the constants belowBound returns.
func assertClosedForm(t *testing.T, aws *align.Workspace, ems *editmachine.Workspace, p problem, w int, sc align.Scoring) {
	t.Helper()
	var boundary []int
	if w >= 0 {
		_, bd := align.ExtendBandedWS(aws, p.q, p.t, p.h0, sc, w)
		boundary = bd.E
	}
	sw := editmachine.SweepExactWS(ems, p.q, p.t, w, p.h0, boundary, sc, editmachine.RelaxedFor(sc))
	n, m := len(p.q), len(p.t)
	if wantEmpty := w < 0 || m <= w; sw.Empty != wantEmpty {
		t.Fatalf("w=%d n=%d m=%d: sweep Empty=%v, want %v", w, n, m, sw.Empty, wantEmpty)
	}
	c, ok := core.BelowBound(n, m, w, p.h0, sc)
	if ok == sw.Empty {
		t.Fatalf("w=%d n=%d m=%d: belowBound ok=%v but sweep Empty=%v", w, n, m, ok, sw.Empty)
	}
	if want := p.h0 - sc.GapOpen - (w+1)*sc.GapExtend + n*sc.Match; ok && c != want {
		t.Fatalf("belowBound = %d, want %d", c, want)
	}
	if ok && sw.ScorePlusCont != c {
		t.Fatalf("w=%d n=%d m=%d h0=%d sc=%+v: sweep ScorePlusCont=%d, closed form %d\n q=%v\n t=%v",
			w, n, m, p.h0, sc, sw.ScorePlusCont, c, p.q, p.t)
	}
}

func TestSweepExactClosedForm(t *testing.T) {
	aws, ems := align.NewWorkspace(), editmachine.NewWorkspace()
	for _, sc := range closedFormScorings {
		if err := editmachine.RelaxedFor(sc).Admissible(sc); err != nil {
			t.Fatalf("scoring %+v: %v", sc, err)
		}
		for _, w := range append([]int{-1}, closedFormBands...) {
			for _, p := range closedFormCorpus(t) {
				assertClosedForm(t, aws, ems, p, w, sc)
			}
		}
	}
}

// checkStrictSweepRef is the strict-mode check workflow as it stood before
// the closed form — the ModeStrict branch of core.check and strictGlobal
// moved here verbatim (package qualifiers aside) — kept as the reference
// the closed-form ladder must reproduce verdict for verdict.
func checkStrictSweepRef(ems *editmachine.Workspace, query, target []byte, h0 int, res align.ExtendResult, bd align.BandBoundary, cfg core.Config) core.Report {
	n, m := len(query), len(target)
	w := cfg.Band
	sc := cfg.Scoring
	rep := core.Report{ScoreNB: res.Local}

	if w >= n && w >= m {
		rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = core.PassFullCover, true, true
		return rep
	}

	rep.Th = core.ComputeThresholds(n, h0, w, sc, cfg.Kind)
	switch {
	case res.Local <= rep.Th.S1:
		rep.Outcome = core.FailS1
		return rep
	case res.Local > rep.Th.S2:
		rep.Outcome, rep.Pass, rep.ThresholdOnlyPass = core.PassS2, true, true
		return strictGlobalSweepRef(ems, query, target, h0, res, bd, cfg, rep, nil)
	}

	rep.ERan = true
	rep.ScoreMaxE, rep.ELive = core.MaxEScore(bd, n, sc)
	if rep.ELive && rep.ScoreMaxE >= res.Local {
		rep.Outcome = core.FailE
		return rep
	}

	rep.EditRan = true
	rx := editmachine.RelaxedFor(sc)
	sw := editmachine.SweepExactWS(ems, query, target, w, h0, bd.E, sc, rx)
	if !sw.Empty {
		rep.ScoreEd = sw.Score
		if sw.ScorePlusCont >= res.Local {
			rep.Outcome = core.FailEdit
			return rep
		}
	}
	rep.Outcome, rep.Pass = core.PassChecks, true
	return strictGlobalSweepRef(ems, query, target, h0, res, bd, cfg, rep, &sw)
}

func strictGlobalSweepRef(ems *editmachine.Workspace, query, target []byte, h0 int, res align.ExtendResult, bd align.BandBoundary, cfg core.Config, rep core.Report, sweep *editmachine.RegionResult) core.Report {
	n := len(query)
	sc := cfg.Scoring
	w := cfg.Band

	below := 0
	if sweep == nil {
		sw := editmachine.SweepExactWS(ems, query, target, w, h0, bd.E, sc, editmachine.RelaxedFor(sc))
		sweep = &sw
	}
	if !sweep.Empty && sweep.ScorePlusCont > 0 {
		below = sweep.ScorePlusCont
	}
	above := 0
	if n > w {
		if v := h0 - sc.GapOpen - (w+1)*sc.GapExtend + (n-w-1)*sc.Match; v > 0 {
			above = v
		}
	}
	bound := below
	if above > bound {
		bound = above
	}
	if bound > 0 && bound >= res.Global {
		rep.Outcome, rep.Pass = core.FailGlobal, false
		rep.ThresholdOnlyPass = false
	}
	return rep
}

// sameVerdict compares everything of a Report except ScoreEd, which in
// strict mode changed meaning (region maximum -> the bound compared).
func sameVerdict(a, b core.Report) bool {
	a.ScoreEd, b.ScoreEd = 0, 0
	return a == b
}

// assertVerdictIdentity: the closed-form check (scalar Check and the
// packed CheckBatch path the server runs) returns the reference verdict,
// which is handed back.
func assertVerdictIdentity(t *testing.T, aws *align.Workspace, ems *editmachine.Workspace, chk *core.Checker, p problem) core.Report {
	t.Helper()
	cfg := chk.Config
	res, bd := align.ExtendBandedWS(aws, p.q, p.t, p.h0, cfg.Scoring, cfg.Band)
	want := checkStrictSweepRef(ems, p.q, p.t, p.h0, res, bd, cfg)
	gotRes, got := chk.Check(p.q, p.t, p.h0)
	if gotRes != res || !sameVerdict(got, want) {
		t.Fatalf("w=%d sc=%+v h0=%d: closed-form report %+v != sweep reference %+v\n q=%v\n t=%v",
			cfg.Band, cfg.Scoring, p.h0, got, want, p.q, p.t)
	}
	if got.EditRan && got.Outcome != core.FailE {
		if c, ok := core.BelowBound(len(p.q), len(p.t), cfg.Band, p.h0, cfg.Scoring); ok && got.ScoreEd != c {
			t.Fatalf("strict ScoreEd = %d, want the bound compared %d", got.ScoreEd, c)
		}
	}
	_, reps := chk.CheckBatch([]core.Request{{Q: p.q, T: p.t, H0: p.h0}}, nil)
	if !sameVerdict(reps[0], want) {
		t.Fatalf("w=%d sc=%+v h0=%d: CheckBatch report %+v != sweep reference %+v", cfg.Band, cfg.Scoring, p.h0, reps[0], want)
	}
	return got
}

func TestStrictVerdictIdentity(t *testing.T) {
	aws, ems := align.NewWorkspace(), editmachine.NewWorkspace()
	outcomes := map[core.Outcome]int{}
	for _, sc := range closedFormScorings {
		for _, kind := range []core.AlignKind{core.SemiGlobal, core.Global} {
			for _, w := range closedFormBands {
				chk := core.NewChecker(core.Config{Band: w, Scoring: sc, Kind: kind, Mode: core.ModeStrict})
				for _, p := range closedFormCorpus(t) {
					outcomes[assertVerdictIdentity(t, aws, ems, chk, p).Outcome]++
				}
			}
		}
	}
	// The corpus must reach every rung of the ladder, or identity on it
	// proves nothing about the rungs it skipped.
	for o := core.PassFullCover; o <= core.FailGlobal; o++ {
		if outcomes[o] == 0 {
			t.Errorf("corpus never produced outcome %v (%v)", o, outcomes)
		}
	}
}

// FuzzStrictClosedForm drives both properties from fuzz input: problems
// from the generators (picked by seed) or straight from raw bytes, any
// band folded into 1..41, h0 corrupted by h0delta, every scoring of
// closedFormScorings.
func FuzzStrictClosedForm(f *testing.F) {
	f.Add(int64(1), 5, 0, uint8(0), []byte(nil))
	f.Add(int64(2), 20, 500, uint8(1), []byte(nil))
	f.Add(int64(3), -242, -40, uint8(2), []byte(nil))
	f.Add(int64(4), 41, 100000, uint8(3), []byte(nil))
	f.Add(int64(5), 12, 0, uint8(0), []byte("ACGTACGTTTGACCAGTACGATTTACGACCGTA"))
	f.Add(int64(6), 2, 7, uint8(1), []byte{0, 1, 2, 3, 0xff, 0x7f, 9, 9, 9, 0, 1, 2, 3, 3, 3})
	aws, ems := align.NewWorkspace(), editmachine.NewWorkspace()
	f.Fuzz(func(t *testing.T, seed int64, band, h0delta int, scIdx uint8, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		var p problem
		switch {
		case len(raw) > 0:
			if len(raw) > 400 {
				raw = raw[:400]
			}
			p.q, p.t = core.AdversarialSeqs(raw)
			p.h0 = rng.Intn(300)
		case seed%3 == 0:
			p.q, p.t, p.h0 = core.RealisticCase(rng)
		case seed%3 == 1 || seed%3 == -1:
			p.q, p.t, p.h0 = core.AdversarialCase(rng)
		default:
			p.q, p.t, p.h0 = core.CorruptedCase(rng, 0)
		}
		h0delta %= 1 << 20
		if p.h0 += h0delta; p.h0 < 0 {
			p.h0 = 0
		}
		w := core.FuzzBand(band, 41)
		sc := closedFormScorings[int(scIdx)%len(closedFormScorings)]
		assertClosedForm(t, aws, ems, p, w, sc)
		chk := core.NewChecker(core.Config{Band: w, Scoring: sc, Kind: core.SemiGlobal, Mode: core.ModeStrict})
		assertVerdictIdentity(t, aws, ems, chk, p)
	})
}
