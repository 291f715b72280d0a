package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"seedex/internal/align"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

func mutate(rng *rand.Rand, seq []byte, subRate, indelRate float64) []byte {
	out := make([]byte, 0, len(seq)+8)
	for _, c := range seq {
		r := rng.Float64()
		switch {
		case r < indelRate/2:
		case r < indelRate:
			out = append(out, byte(rng.Intn(4)), c)
		case r < indelRate+subRate:
			out = append(out, (c+byte(1+rng.Intn(3)))%4)
		default:
			out = append(out, c)
		}
	}
	return out
}

// realisticCase mimics a BWA-MEM seed extension: the query is an erroneous
// copy of a target prefix, anchored by a plausible seed score.
func realisticCase(rng *rand.Rand) (q, t []byte, h0 int) {
	qlen := 20 + rng.Intn(101)
	t = randSeq(rng, qlen+rng.Intn(40))
	end := qlen
	if end > len(t) {
		end = len(t)
	}
	q = mutate(rng, t[:end], 0.02, 0.01)
	if len(q) == 0 {
		q = randSeq(rng, 10)
	}
	h0 = 15 + rng.Intn(80)
	return
}

// adversarialCase generates hostile inputs: unrelated sequences, huge h0
// (keeping the below-band first column alive), embedded off-diagonal
// repeats — everything that stresses the soundness of the checks.
func adversarialCase(rng *rand.Rand) (q, t []byte, h0 int) {
	qlen := 5 + rng.Intn(70)
	q = randSeq(rng, qlen)
	switch rng.Intn(4) {
	case 0: // unrelated
		t = randSeq(rng, 5+rng.Intn(100))
	case 1: // query embedded deep below the diagonal
		t = append(randSeq(rng, rng.Intn(50)), q...)
		t = append(t, randSeq(rng, rng.Intn(20))...)
	case 2: // repetitive target built from query fragments
		t = nil
		for len(t) < qlen+30 {
			a := rng.Intn(qlen)
			b := a + 1 + rng.Intn(qlen-a)
			t = append(t, q[a:b]...)
		}
	default: // near copy with a huge gap
		t = append([]byte(nil), q[:qlen/2]...)
		t = append(t, randSeq(rng, 10+rng.Intn(40))...)
		t = append(t, q[qlen/2:]...)
	}
	h0 = 1 + rng.Intn(200) // includes very large seeds
	return
}

func sameResult(a, b align.ExtendResult) bool {
	return a.Local == b.Local && a.LocalT == b.LocalT && a.LocalQ == b.LocalQ &&
		a.Global == b.Global && a.GlobalT == b.GlobalT
}

// TestStrictPassImpliesFullEquality is the repository's central invariant:
// whenever the strict-mode checks pass, the narrow-band result is
// bit-identical (scores and positions, local and global) to the full-band
// result. It is exercised on both realistic and adversarial generators.
func TestStrictPassImpliesFullEquality(t *testing.T) {
	sc := align.DefaultScoring()
	gens := map[string]func(*rand.Rand) ([]byte, []byte, int){
		"realistic":   realisticCase,
		"adversarial": adversarialCase,
	}
	for name, gen := range gens {
		gen := gen
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, wRaw uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				q, tg, h0 := gen(rng)
				w := 1 + int(wRaw)%45
				cfg := Config{Band: w, Scoring: sc, Kind: SemiGlobal, Mode: ModeStrict}
				res, rep := Check(q, tg, h0, cfg)
				if !rep.Pass {
					return true // rerun path; nothing to prove
				}
				full := align.Extend(q, tg, h0, sc)
				if !sameResult(res, full) {
					t.Logf("seed=%d w=%d h0=%d outcome=%v\n q=%v\n t=%v\n banded=%+v\n full=%+v\n report=%+v",
						seed, w, h0, rep.Outcome, q, tg, res, full, rep)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(99))}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStrictSoundnessRandomScoring re-runs the central invariant under
// randomized scoring schemes: the checks' soundness must not depend on
// BWA's particular constants.
func TestStrictSoundnessRandomScoring(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := align.Scoring{
			Match:     1 + rng.Intn(3),
			Mismatch:  1 + rng.Intn(8),
			GapOpen:   rng.Intn(10),
			GapExtend: 1 + rng.Intn(4),
		}
		var q, tg []byte
		var h0 int
		if rng.Intn(2) == 0 {
			q, tg, h0 = realisticCase(rng)
		} else {
			q, tg, h0 = adversarialCase(rng)
		}
		w := 1 + int(wRaw)%30
		cfg := Config{Band: w, Scoring: sc, Kind: SemiGlobal, Mode: ModeStrict}
		res, rep := Check(q, tg, h0, cfg)
		if !rep.Pass {
			return true
		}
		full := align.Extend(q, tg, h0, sc)
		if !sameResult(res, full) {
			t.Logf("seed=%d w=%d h0=%d sc=%+v outcome=%v\n banded=%+v\n full=%+v", seed, w, h0, sc, rep.Outcome, res, full)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2500, Rand: rand.New(rand.NewSource(123))}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperPassImpliesLocalEquality verifies the paper-mode guarantee on
// realistic extension workloads: a passing check means the narrow-band
// local result equals the full-band local result.
func TestPaperPassImpliesLocalEquality(t *testing.T) {
	sc := align.DefaultScoring()
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q, tg, h0 := realisticCase(rng)
		w := 1 + int(wRaw)%45
		cfg := Config{Band: w, Scoring: sc, Kind: SemiGlobal, Mode: ModePaper}
		res, rep := Check(q, tg, h0, cfg)
		if !rep.Pass {
			return true
		}
		full := align.Extend(q, tg, h0, sc)
		if res.Local != full.Local || res.LocalT != full.LocalT || res.LocalQ != full.LocalQ {
			t.Logf("seed=%d w=%d h0=%d outcome=%v banded=%+v full=%+v", seed, w, h0, rep.Outcome, res, full)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedExBitEquivalence: the complete speculative extender (checks +
// host rerun) must always equal a full-band run — the paper's headline
// SAM-level validation, at extension granularity.
func TestSeedExBitEquivalence(t *testing.T) {
	sc := align.DefaultScoring()
	for _, w := range []int{1, 3, 5, 10, 21, 41} {
		se := New(w)
		full := FullBand{Scoring: sc}
		for seed := int64(0); seed < 400; seed++ {
			rng := rand.New(rand.NewSource(seed * 31))
			var q, tg []byte
			var h0 int
			if seed%2 == 0 {
				q, tg, h0 = realisticCase(rng)
			} else {
				q, tg, h0 = adversarialCase(rng)
			}
			got := se.Extend(q, tg, h0)
			want := full.Extend(q, tg, h0)
			if !sameResult(got, want) {
				t.Fatalf("w=%d seed=%d: seedex %+v != full %+v", w, seed, got, want)
			}
		}
		if se.Stats.Total.Load() == 0 {
			t.Fatalf("stats not recorded")
		}
	}
}

func TestThresholds(t *testing.T) {
	sc := align.DefaultScoring()
	th := ComputeThresholds(101, 30, 41, sc, SemiGlobal)
	// S1 = 30 - (6 + 41) + 60*1 = 43 ; S2 = 30 - 47 + 101 = 84.
	if th.S1 != 43 || th.S2 != 84 {
		t.Fatalf("semi-global thresholds = %+v, want S1=43 S2=84", th)
	}
	if th.S2-th.S1 != 41*sc.Match {
		t.Fatalf("S2-S1 must equal w*m")
	}
	g := ComputeThresholds(101, 30, 41, sc, Global)
	// gap terms doubled: 30 - (12 + 82) + 60 = -4 ; 30 - 94 + 101 = 37.
	if g.S1 != -4 || g.S2 != 37 {
		t.Fatalf("global thresholds = %+v, want S1=-4 S2=37", g)
	}
}

func TestMaxEScoreSkipsDeadCrossings(t *testing.T) {
	sc := align.DefaultScoring()
	bd := align.BandBoundary{E: []int{0, 0, 5, 0, 2}}
	v, live := MaxEScore(bd, 10, sc)
	if !live || v != 5+(10-2)*sc.Match {
		t.Fatalf("MaxEScore = %d live=%v, want %d", v, live, 5+8)
	}
	_, live = MaxEScore(align.BandBoundary{E: []int{0, 0, 0}}, 10, sc)
	if live {
		t.Fatal("all-dead boundary must report no live crossing")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o := PassFullCover; o <= FailGlobal; o++ {
		if o.String() == "" {
			t.Fatalf("outcome %d has empty string", o)
		}
	}
	if Outcome(99).String() != "outcome(99)" {
		t.Fatal("unknown outcome formatting")
	}
}

// TestOutcomeNames: every outcome the counters hold has a name of its
// own, so /metrics and the Prometheus families label each one apart —
// an outcome added without one would render as the outcome(%d) fallback.
func TestOutcomeNames(t *testing.T) {
	seen := map[string]Outcome{}
	for o := Outcome(0); int(o) < numOutcomes; o++ {
		name := o.String()
		if name == fmt.Sprintf("outcome(%d)", int(o)) {
			t.Errorf("outcome %d has no name", int(o))
		}
		if prev, ok := seen[name]; ok {
			t.Errorf("outcomes %d and %d share the name %q", int(prev), int(o), name)
		}
		seen[name] = o
	}
	if _, ok := seen["pass-resolve"]; !ok {
		t.Fatalf("pass-resolve is outside the %d counters", numOutcomes)
	}
}

func TestFullCoverPass(t *testing.T) {
	sc := align.DefaultScoring()
	q := randSeq(rand.New(rand.NewSource(8)), 10)
	res, rep := Check(q, q, 20, Config{Band: 50, Scoring: sc, Mode: ModeStrict})
	if rep.Outcome != PassFullCover || !rep.Pass {
		t.Fatalf("wide band should pass by coverage, got %+v", rep)
	}
	full := align.Extend(q, q, 20, sc)
	if !sameResult(res, full) {
		t.Fatalf("full-cover band result differs from full")
	}
}

func TestStatsAggregation(t *testing.T) {
	s := NewStats()
	s.record(Report{Pass: true, Outcome: PassS2, ThresholdOnlyPass: true})
	s.record(Report{Pass: false, Outcome: FailS1})
	if s.Total.Load() != 2 || s.Passed.Load() != 1 || s.Reruns.Load() != 1 || s.ThresholdOnly.Load() != 1 {
		t.Fatalf("bad counters: %+v", s.Snapshot())
	}
	if s.PassRate() != 0.5 || s.ThresholdOnlyRate() != 0.5 {
		t.Fatalf("bad rates: %v %v", s.PassRate(), s.ThresholdOnlyRate())
	}
	if s.String() == "" || NewStats().String() == "" {
		t.Fatal("empty stats string")
	}
	snap := s.Snapshot()
	if snap.Total != 2 || snap.Passed != 1 || snap.Reruns != 1 || snap.ThresholdOnly != 1 {
		t.Fatalf("bad snapshot counters: %+v", snap)
	}
	oc := snap.OutcomeCounts()
	if oc["pass-s2"] != 1 || oc["fail-s1"] != 1 {
		t.Fatalf("snapshot missing outcomes: %v", oc)
	}
	if snap.String() != s.String() {
		t.Fatalf("snapshot and live summaries diverge: %q vs %q", snap.String(), s.String())
	}
}
