package align

import (
	"math"
	"math/rand"
	"testing"
)

func wsRandSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(5)) // include ambiguous bases
	}
	return s
}

// wsRandCase draws one extension problem, alternating between related
// (mutated-copy) and unrelated sequence pairs.
func wsRandCase(rng *rand.Rand) (q, t []byte, h0 int) {
	tlen := 1 + rng.Intn(160)
	t = wsRandSeq(rng, tlen)
	if rng.Intn(2) == 0 {
		qlen := tlen - rng.Intn(tlen)
		q = append([]byte(nil), t[:qlen]...)
		for k := 0; k < qlen/20+1; k++ {
			q[rng.Intn(qlen)] = byte(rng.Intn(5))
		}
	} else {
		q = wsRandSeq(rng, 1+rng.Intn(160))
	}
	h0 = rng.Intn(180) // includes 0 (degenerate)
	return
}

func wsRandScoring(rng *rand.Rand) Scoring {
	return Scoring{
		Match:     1 + rng.Intn(3),
		Mismatch:  1 + rng.Intn(8),
		GapOpen:   rng.Intn(10),
		GapExtend: 1 + rng.Intn(4),
	}
}

func sameExtendResult(a, b ExtendResult) bool { return a == b }

// TestWorkspaceKernelEquivalence pins the workspace kernel bit-for-bit
// against the reference kernel: every result field (scores, positions,
// rows, cell counts) and every boundary E-score must match, across random
// problems, random scorings and all band widths.
func TestWorkspaceKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ws := NewWorkspace()
	bands := []int{-1, 0, 1, 2, 3, 5, 8, 13, 20, 35, 60, 200}
	for iter := 0; iter < 4000; iter++ {
		q, tg, h0 := wsRandCase(rng)
		sc := DefaultScoring()
		if iter%3 == 0 {
			sc = wsRandScoring(rng)
		}
		w := bands[rng.Intn(len(bands))]
		if w < 0 {
			want, _ := extendCoreRef(q, tg, h0, sc, -1, false)
			got := ExtendWS(ws, q, tg, h0, sc)
			if !sameExtendResult(got, want) {
				t.Fatalf("iter %d full: ws %+v != ref %+v (h0=%d sc=%+v)", iter, got, want, h0, sc)
			}
			continue
		}
		want, wantBd := extendCoreRef(q, tg, h0, sc, w, true)
		got, gotBd := ExtendBandedWS(ws, q, tg, h0, sc, w)
		if !sameExtendResult(got, want) {
			t.Fatalf("iter %d w=%d: ws %+v != ref %+v (h0=%d sc=%+v)", iter, w, got, want, h0, sc)
		}
		if len(gotBd.E) != len(wantBd.E) {
			t.Fatalf("iter %d w=%d: boundary length %d != %d", iter, w, len(gotBd.E), len(wantBd.E))
		}
		for j := range wantBd.E {
			if gotBd.E[j] != wantBd.E[j] {
				t.Fatalf("iter %d w=%d: boundary E[%d] = %d != %d", iter, w, j, gotBd.E[j], wantBd.E[j])
			}
		}
	}
}

// TestPooledWrappersMatchReference checks the drop-in Extend/ExtendBanded
// wrappers (pool-backed) against the reference kernel.
func TestPooledWrappersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := DefaultScoring()
	for iter := 0; iter < 500; iter++ {
		q, tg, h0 := wsRandCase(rng)
		if got, want := Extend(q, tg, h0, sc), ExtendRef(q, tg, h0, sc); !sameExtendResult(got, want) {
			t.Fatalf("Extend: %+v != %+v", got, want)
		}
		w := rng.Intn(30)
		got, gotBd := ExtendBanded(q, tg, h0, sc, w)
		want, wantBd := ExtendBandedRef(q, tg, h0, sc, w)
		if !sameExtendResult(got, want) {
			t.Fatalf("ExtendBanded: %+v != %+v", got, want)
		}
		for j := range wantBd.E {
			if gotBd.E[j] != wantBd.E[j] {
				t.Fatalf("ExtendBanded boundary mismatch at %d", j)
			}
		}
	}
}

// TestInt32OverflowFallback: problems whose score range exceeds the int32
// datapath must transparently use the reference kernel and still be exact.
func TestInt32OverflowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	q, tg := wsRandSeq(rng, 80), wsRandSeq(rng, 100)
	sc := DefaultScoring()
	ws := NewWorkspace()
	for _, h0 := range []int{int32SafeLimit, math.MaxInt32, math.MaxInt32 * 4} {
		if int32Safe(len(q), len(tg), h0, sc) {
			t.Fatalf("h0=%d should be flagged unsafe", h0)
		}
		got := ExtendWS(ws, q, tg, h0, sc)
		want := ExtendRef(q, tg, h0, sc)
		if !sameExtendResult(got, want) {
			t.Fatalf("h0=%d: fallback %+v != ref %+v", h0, got, want)
		}
		gotB, gotBd := ExtendBandedWS(ws, q, tg, h0, sc, 5)
		wantB, wantBd := ExtendBandedRef(q, tg, h0, sc, 5)
		if !sameExtendResult(gotB, wantB) {
			t.Fatalf("h0=%d banded: fallback %+v != ref %+v", h0, gotB, wantB)
		}
		for j := range wantBd.E {
			if gotBd.E[j] != wantBd.E[j] {
				t.Fatalf("h0=%d banded boundary mismatch at %d", h0, j)
			}
		}
	}
}

// TestExtendWSZeroAllocs: the workspace entry points must be allocation-
// free in steady state (the tentpole property of this hot path).
func TestExtendWSZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sc := DefaultScoring()
	tg := wsRandSeq(rng, 200)
	q := append([]byte(nil), tg[:150]...)
	for k := 0; k < 8; k++ {
		q[rng.Intn(len(q))] = byte(rng.Intn(4))
	}
	ws := NewWorkspace()
	ExtendWS(ws, q, tg, 40, sc) // warm the buffers
	if n := testing.AllocsPerRun(200, func() {
		ExtendWS(ws, q, tg, 40, sc)
	}); n != 0 {
		t.Fatalf("ExtendWS allocates %.1f allocs/op, want 0", n)
	}
	ExtendBandedWS(ws, q, tg, 40, sc, 20)
	if n := testing.AllocsPerRun(200, func() {
		ExtendBandedWS(ws, q, tg, 40, sc, 20)
	}); n != 0 {
		t.Fatalf("ExtendBandedWS allocates %.1f allocs/op, want 0", n)
	}
}

// TestBoundaryAliasContract documents the aliasing contract: successive
// banded runs on one workspace return boundaries sharing the same backing
// buffer (that is what makes the WS path allocation-free).
func TestBoundaryAliasContract(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tg := wsRandSeq(rng, 120)
	q := append([]byte(nil), tg[:100]...)
	ws := NewWorkspace()
	_, bd1 := ExtendBandedWS(ws, q, tg, 60, DefaultScoring(), 3)
	_, bd2 := ExtendBandedWS(ws, q, tg, 60, DefaultScoring(), 3)
	if len(bd1.E) == 0 || len(bd2.E) == 0 {
		t.Fatal("boundaries must be materialized in banded mode")
	}
	if &bd1.E[0] != &bd2.E[0] {
		t.Fatal("boundary buffers must be reused across runs on one workspace")
	}
}
