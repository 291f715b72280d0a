package bwamem

import (
	"math/rand"
	"testing"

	"seedex/internal/align"
)

// TestTraceSideDisagreement: traceSide's band rests on the side's score
// being the score of some path to the endpoint, not on it being what the
// configured TraceBand fill holds there. When the two disagree — a score
// below the endpoint's optimum (a banded extender traced on the full
// matrix), or a TraceBand too narrow for the path that scored it — the
// side still traces exactly as the whole TraceBand fill traces it, error
// or not.
func TestTraceSideDisagreement(t *testing.T) {
	sc := align.DefaultScoring()
	rng := rand.New(rand.NewSource(15))
	disagree, agree := 0, 0
	for k := 0; k < 400; k++ {
		tg := make([]byte, 70+rng.Intn(40))
		for i := range tg {
			tg[i] = byte(rng.Intn(4))
		}
		// The query drops a stretch of the target: the path to its end
		// carries a gap of that length.
		cut, gap := 10+rng.Intn(30), 1+rng.Intn(6)
		q := append(append([]byte(nil), tg[:cut]...), tg[cut+gap:60]...)
		h0 := 25 + rng.Intn(20)
		full, _ := align.NaiveExtend(q, tg, h0, sc)
		if full.Global <= 0 {
			continue
		}
		side := tg[:full.GlobalT]
		for _, tc := range []struct{ traceBand, score int }{
			{-1, full.Global},
			{-1, full.Global - 1 - rng.Intn(8)},
			{rng.Intn(gap + 1), full.Global},
			{gap + rng.Intn(3), full.Global},
		} {
			a := &Aligner{Scoring: sc, Opts: Options{TraceBand: tc.traceBand}}
			got, gerr := a.traceSide(q, side, h0, tc.score)
			_, mx := align.NaiveExtendBanded(q, side, h0, sc, tc.traceBand)
			want, werr := align.Traceback(mx, sc, len(side), len(q))
			if (gerr == nil) != (werr == nil) || got.String() != want.String() {
				t.Fatalf("case %d %+v: traceSide %s (%v), the TraceBand fill traces %s (%v)", k, tc, got, gerr, want, werr)
			}
			if mx.H[len(side)][len(q)] != tc.score {
				disagree++
			} else {
				agree++
			}
		}
	}
	if disagree < 100 || agree < 100 {
		t.Fatalf("%d disagreeing and %d agreeing cases: the corpus does not exercise both", disagree, agree)
	}
}
