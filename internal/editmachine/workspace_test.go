package editmachine

import (
	"math/rand"
	"testing"

	"seedex/internal/align"
)

func wsSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// TestSweepWSEquivalence: the workspace entry points and the pooled
// wrappers must agree field-for-field across random regions.
func TestSweepWSEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sc := align.DefaultScoring()
	rx := RelaxedFor(sc)
	ws := NewWorkspace()
	for iter := 0; iter < 800; iter++ {
		q := wsSeq(rng, 1+rng.Intn(90))
		tg := wsSeq(rng, 1+rng.Intn(120))
		w := rng.Intn(20)
		h0 := 5 + rng.Intn(80)
		if got, want := SweepCornerWS(ws, q, tg, w, h0, rx), SweepCorner(q, tg, w, h0, rx); got != want {
			t.Fatalf("iter %d corner: ws %+v != pooled %+v", iter, got, want)
		}
		boundary := make([]int, len(q)+1)
		for j := range boundary {
			if rng.Intn(3) == 0 {
				boundary[j] = rng.Intn(40)
			}
		}
		if got, want := SweepExactWS(ws, q, tg, w, h0, boundary, sc, rx), SweepExact(q, tg, w, h0, boundary, sc, rx); got != want {
			t.Fatalf("iter %d exact: ws %+v != pooled %+v", iter, got, want)
		}
	}
}

// TestSweepZeroAllocs: both the caller-owned and the pooled sweep paths
// must be allocation-free in steady state.
func TestSweepZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	sc := align.DefaultScoring()
	rx := RelaxedFor(sc)
	q := wsSeq(rng, 150)
	tg := wsSeq(rng, 170)
	boundary := make([]int, len(q)+1)
	for j := range boundary {
		boundary[j] = rng.Intn(30)
	}
	ws := NewWorkspace()
	SweepExactWS(ws, q, tg, 10, 40, boundary, sc, rx) // warm the row
	if n := testing.AllocsPerRun(200, func() {
		SweepExactWS(ws, q, tg, 10, 40, boundary, sc, rx)
	}); n != 0 {
		t.Fatalf("SweepExactWS allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		SweepCornerWS(ws, q, tg, 10, 40, rx)
	}); n != 0 {
		t.Fatalf("SweepCornerWS allocates %.1f allocs/op, want 0", n)
	}
	CornerReachesWS(ws, q, tg, 10, 40, 60, rx) // warm the query copy
	if n := testing.AllocsPerRun(200, func() {
		CornerReachesWS(ws, q, tg, 10, 40, 60, rx)
	}); n != 0 {
		t.Fatalf("CornerReachesWS allocates %.1f allocs/op, want 0", n)
	}
	SweepExact(q, tg, 10, 40, boundary, sc, rx) // warm the pool
	if n := testing.AllocsPerRun(200, func() {
		SweepExact(q, tg, 10, 40, boundary, sc, rx)
	}); n != 0 {
		t.Fatalf("pooled SweepExact allocates %.1f allocs/op, want 0", n)
	}
}
