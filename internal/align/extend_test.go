package align

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randSeq returns a random base-code sequence of length n.
func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// mutate applies substitutions and indels to a copy of seq with the given
// per-base rates, returning the mutated sequence.
func mutate(rng *rand.Rand, seq []byte, subRate, indelRate float64) []byte {
	out := make([]byte, 0, len(seq)+8)
	for _, c := range seq {
		r := rng.Float64()
		switch {
		case r < indelRate/2: // deletion: skip the base
		case r < indelRate: // insertion: extra random base then the original
			out = append(out, byte(rng.Intn(4)), c)
		case r < indelRate+subRate:
			out = append(out, (c+byte(1+rng.Intn(3)))%4)
		default:
			out = append(out, c)
		}
	}
	return out
}

// extensionCase builds a realistic extension problem: a target window from
// a random "genome" and a query derived from it with errors.
func extensionCase(rng *rand.Rand) (q, t []byte, h0 int) {
	qlen := 20 + rng.Intn(101)
	t = randSeq(rng, qlen+rng.Intn(30))
	q = mutate(rng, t[:min(qlen, len(t))], 0.03, 0.02)
	if len(q) == 0 {
		q = randSeq(rng, 5)
	}
	h0 = 10 + rng.Intn(60)
	return q, t, h0
}

func sameResult(a, b ExtendResult) bool {
	return a.Local == b.Local && a.LocalT == b.LocalT && a.LocalQ == b.LocalQ &&
		a.Global == b.Global && a.GlobalT == b.GlobalT
}

func TestExtendMatchesNaive(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, tg, h0 := extensionCase(r)
		got := Extend(q, tg, h0, sc)
		want, _ := NaiveExtend(q, tg, h0, sc)
		if !sameResult(got, want) {
			t.Logf("q=%v t=%v h0=%d got=%+v want=%+v", q, tg, h0, got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestExtendBandedMatchesNaiveBanded(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q, tg, h0 := extensionCase(r)
		w := r.Intn(30)
		got, _ := ExtendBanded(q, tg, h0, sc, w)
		want, _ := NaiveExtendBanded(q, tg, h0, sc, w)
		if !sameResult(got, want) {
			t.Logf("w=%d q=%v t=%v h0=%d got=%+v want=%+v", w, q, tg, h0, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestBandedWideEqualsFull(t *testing.T) {
	sc := DefaultScoring()
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		q, tg, h0 := extensionCase(r)
		w := len(q) + len(tg) // covers the whole matrix
		b, _ := ExtendBanded(q, tg, h0, sc, w)
		full := Extend(q, tg, h0, sc)
		if !sameResult(b, full) {
			t.Fatalf("seed %d: wide band %+v != full %+v", seed, b, full)
		}
	}
}

// TestEarlyTerminationIsExact: the kernel's dead-region trimming and
// dead-row break change no result and add no work. NaiveExtend fills the
// whole matrix with neither.
func TestEarlyTerminationIsExact(t *testing.T) {
	sc := DefaultScoring()
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		q, tg, h0 := extensionCase(r)
		a := Extend(q, tg, h0, sc)
		b, _ := NaiveExtend(q, tg, h0, sc)
		if !sameResult(a, b) {
			t.Fatalf("seed %d: early-term changed result: %+v vs naive %+v", seed, a, b)
		}
		if a.Cells > b.Cells {
			t.Fatalf("seed %d: early-term computed more cells than the naive fill (%d > %d)", seed, a.Cells, b.Cells)
		}
	}
}

func TestExtendPerfectMatch(t *testing.T) {
	sc := DefaultScoring()
	q := []byte{0, 1, 2, 3, 0, 1, 2, 3, 2, 2}
	res := Extend(q, q, 50, sc)
	want := 50 + len(q)*sc.Match
	if res.Local != want || res.Global != want {
		t.Fatalf("perfect match: got local=%d global=%d, want %d", res.Local, res.Global, want)
	}
	if res.LocalT != len(q) || res.LocalQ != len(q) || res.GlobalT != len(q) {
		t.Fatalf("perfect match positions wrong: %+v", res)
	}
}

func TestExtendSingleMismatch(t *testing.T) {
	sc := DefaultScoring()
	q := []byte{0, 1, 2, 3, 0, 1, 2, 3}
	tg := append([]byte(nil), q...)
	tg[4] = 3 // mismatch in the middle
	res := Extend(q, tg, 20, sc)
	want := 20 + (len(q)-1)*sc.Match - sc.Mismatch
	if res.Global != want {
		t.Fatalf("single mismatch: got global=%d, want %d", res.Global, want)
	}
	// The local best clips before the mismatch.
	if res.Local != 20+4*sc.Match {
		t.Fatalf("single mismatch: got local=%d, want %d", res.Local, 20+4*sc.Match)
	}
}

func TestExtendDeletion(t *testing.T) {
	sc := DefaultScoring()
	// Target has 3 extra bases (deletion from the read's perspective).
	q := []byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	tg := append([]byte(nil), q[:6]...)
	tg = append(tg, 2, 2, 2)
	tg = append(tg, q[6:]...)
	res := Extend(q, tg, 30, sc)
	want := 30 + len(q)*sc.Match - sc.GapOpen - 3*sc.GapExtend
	if res.Global != want {
		t.Fatalf("deletion: got global=%d, want %d", res.Global, want)
	}
	if res.GlobalT != len(tg) {
		t.Fatalf("deletion: global endpoint row %d, want %d", res.GlobalT, len(tg))
	}
}

func TestExtendDeadInputs(t *testing.T) {
	sc := DefaultScoring()
	if r := Extend([]byte{0, 1}, []byte{2, 3}, 0, sc); r.Local != 0 || r.Global != 0 {
		t.Fatalf("h0=0 should be dead, got %+v", r)
	}
	if r := Extend(nil, []byte{1}, 10, sc); r.Local != 0 {
		t.Fatalf("empty query should be dead, got %+v", r)
	}
}

func TestBoundaryECapture(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		q, tg, h0 := extensionCase(rng)
		w := 3 + rng.Intn(10)
		_, bd := ExtendBanded(q, tg, h0, sc, w)
		_, mx := NaiveExtendBanded(q, tg, h0, sc, w)
		// Recompute each boundary E from the naive in-band matrices.
		for j := 1; j <= len(q); j++ {
			i := j + w // in-band lower boundary cell
			if i > len(tg) {
				continue
			}
			want := mx.E[i][j]
			if t1 := mx.H[i][j] - sc.GapOpen; t1 > want {
				want = t1
			}
			want -= sc.GapExtend
			if want < 0 {
				want = 0
			}
			if bd.E[j] != want {
				t.Fatalf("trial %d: boundary E at j=%d: got %d want %d (w=%d)", trial, j, bd.E[j], want, w)
			}
		}
	}
}

func TestEstimateBand(t *testing.T) {
	sc := DefaultScoring()
	if w := sc.EstimateBand(101, 0, 100); w != 95 {
		t.Fatalf("EstimateBand(101,0,100) = %d, want 95", w)
	}
	if w := sc.EstimateBand(101, 50, 100); w != 100 {
		t.Fatalf("cap should clamp, got %d", w)
	}
	if w := sc.EstimateBand(3, 0, 100); w < 1 {
		t.Fatalf("band must be at least 1, got %d", w)
	}
}

func TestUsedBand(t *testing.T) {
	sc := DefaultScoring()
	q := randSeq(rand.New(rand.NewSource(3)), 60)
	if w := UsedBand(q, q, 40, sc); w != 0 {
		t.Fatalf("perfect match needs band 0, got %d", w)
	}
	// Insert a 5-base gap into the target: the optimal path deviates by 5.
	tg := append([]byte(nil), q[:30]...)
	tg = append(tg, 0, 0, 1, 1, 2)
	tg = append(tg, q[30:]...)
	w := UsedBand(q, tg, 40, sc)
	if w < 4 || w > 6 {
		t.Fatalf("5-base deletion should need band ~5, got %d", w)
	}
}

func TestScoringValidate(t *testing.T) {
	if err := DefaultScoring().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Scoring{Match: 0, Mismatch: 4, GapOpen: 6, GapExtend: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero match score")
	}
	bad = Scoring{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero gap extend")
	}
}

// TestExtendMatchesNaiveRandomScoring re-runs the kernel-vs-oracle
// equivalence under randomized scoring schemes.
func TestExtendMatchesNaiveRandomScoring(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sc := Scoring{
			Match:     1 + r.Intn(3),
			Mismatch:  1 + r.Intn(7),
			GapOpen:   r.Intn(9),
			GapExtend: 1 + r.Intn(3),
		}
		q, tg, h0 := extensionCase(r)
		w := -1
		if r.Intn(2) == 0 {
			w = r.Intn(25)
		}
		var got, want ExtendResult
		if w < 0 {
			got = Extend(q, tg, h0, sc)
			want, _ = NaiveExtend(q, tg, h0, sc)
		} else {
			got, _ = ExtendBanded(q, tg, h0, sc, w)
			want, _ = NaiveExtendBanded(q, tg, h0, sc, w)
		}
		if !sameResult(got, want) {
			t.Logf("seed=%d sc=%+v w=%d: %+v vs %+v", seed, sc, w, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
