package align

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// naiveExtendReference is the naive fill as it was before its loops were
// bounded by the band: every cell of the matrix visited and asked, through
// a closure, whether it and its neighbours are in band, into freshly
// zeroed matrices.
func naiveExtendReference(query, target []byte, h0 int, sc Scoring, w int) (ExtendResult, *Matrices) {
	n, m := len(query), len(target)
	mx := &Matrices{Qlen: n, Tlen: m}
	for _, rows := range []*[][]int{&mx.H, &mx.E, &mx.F} {
		*rows = make([][]int, m+1)
		for i := range *rows {
			(*rows)[i] = make([]int, n+1)
		}
	}
	res := ExtendResult{}
	if h0 <= 0 || n == 0 {
		return res, mx
	}
	banded := w >= 0
	inBand := func(i, j int) bool {
		if !banded {
			return true
		}
		d := i - j
		return d <= w && d >= -w
	}

	mx.H[0][0] = h0
	for j := 1; j <= n; j++ {
		if !inBand(0, j) {
			continue
		}
		v := h0 - sc.GapOpen - j*sc.GapExtend
		if v > 0 {
			mx.H[0][j] = v
		}
	}
	if mx.H[0][n] > 0 {
		res.Global, res.GlobalT = mx.H[0][n], 0
	}
	for i := 1; i <= m; i++ {
		if inBand(i, 0) {
			v := h0 - sc.GapOpen - i*sc.GapExtend
			if v > 0 {
				mx.H[i][0] = v
			}
		}
		for j := 1; j <= n; j++ {
			if !inBand(i, j) {
				continue
			}
			if i >= 2 && inBand(i-1, j) {
				ev := mx.E[i-1][j]
				if t := mx.H[i-1][j] - sc.GapOpen; t > ev {
					ev = t
				}
				ev -= sc.GapExtend
				if ev > 0 {
					mx.E[i][j] = ev
				}
			}
			if j >= 2 && inBand(i, j-1) {
				fv := mx.F[i][j-1]
				if t := mx.H[i][j-1] - sc.GapOpen; t > fv {
					fv = t
				}
				fv -= sc.GapExtend
				if fv > 0 {
					mx.F[i][j] = fv
				}
			}
			var mv int
			if inBand(i-1, j-1) && mx.H[i-1][j-1] > 0 {
				mv = mx.H[i-1][j-1] + sc.Sub(target[i-1], query[j-1])
			}
			hv := mv
			if mx.E[i][j] > hv {
				hv = mx.E[i][j]
			}
			if mx.F[i][j] > hv {
				hv = mx.F[i][j]
			}
			if hv < 0 {
				hv = 0
			}
			mx.H[i][j] = hv
			res.Cells++
			if hv > res.Local {
				res.Local, res.LocalT, res.LocalQ = hv, i, j
			}
			if j == n && hv > res.Global {
				res.Global, res.GlobalT = hv, i
			}
		}
		res.Rows = i
	}
	return res, mx
}

// checkTraceBand holds one extension problem to the reference fill. On
// fresh memory the band-bounded fill returns the reference's matrices cell
// for cell, full (w < 0) and banded. Then, for the local and the global
// endpoint the full fill reports: the problem trimmed to the endpoint and
// filled in the dirty workspace ws under the band its score allows
// (PathBand) holds that score at the endpoint and traces the CIGAR the
// full fill traces.
func checkTraceBand(t *testing.T, ws *TraceWorkspace, q, tg []byte, h0 int, sc Scoring) {
	t.Helper()
	wantRes, full := naiveExtendReference(q, tg, h0, sc, -1)
	for _, w := range []int{-1, 0, 3, len(q) + len(tg)} {
		ref, refMx := wantRes, full
		if w >= 0 {
			ref, refMx = naiveExtendReference(q, tg, h0, sc, w)
		}
		got, gotMx := (*TraceWorkspace)(nil).NaiveExtend(q, tg, h0, sc, w)
		if got != ref || !reflect.DeepEqual(gotMx, refMx) {
			t.Fatalf("band %d: fill differs from the reference\nq=%v t=%v h0=%d %+v\n got  %+v\n want %+v", w, q, tg, h0, sc, got, ref)
		}
	}
	type endpoint struct{ ti, qj, score int }
	for _, e := range []endpoint{
		{wantRes.LocalT, wantRes.LocalQ, wantRes.Local},
		{wantRes.GlobalT, len(q), wantRes.Global},
	} {
		if e.score <= 0 {
			continue
		}
		want, err := Traceback(full, sc, e.ti, e.qj)
		if err != nil {
			t.Fatalf("full traceback to (%d,%d): %v", e.ti, e.qj, err)
		}
		band := sc.PathBand(h0, e.qj, e.ti, e.score)
		if (band < 0) != (sc.GapExtend == 0) {
			t.Fatalf("PathBand = %d with GapExtend %d", band, sc.GapExtend)
		}
		_, mx := ws.NaiveExtend(q[:e.qj], tg[:e.ti], h0, sc, band)
		if got := mx.H[e.ti][e.qj]; got != e.score {
			t.Fatalf("band %d: H(%d,%d) = %d, full fill says %d\nq=%v t=%v h0=%d %+v", band, e.ti, e.qj, got, e.score, q, tg, h0, sc)
		}
		got, err := Traceback(mx, sc, e.ti, e.qj)
		if err != nil {
			t.Fatalf("band %d: traceback to (%d,%d): %v", band, e.ti, e.qj, err)
		}
		if got.String() != want.String() {
			t.Fatalf("band %d: CIGAR %s, full fill traces %s\nq=%v t=%v h0=%d %+v", band, got, want, q, tg, h0, sc)
		}
	}
}

var traceBandScorings = []Scoring{
	DefaultScoring(),
	{Match: 1, Mismatch: 4, GapOpen: 0, GapExtend: 1},
	{Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2},
	{Match: 1, Mismatch: 1, GapOpen: 1, GapExtend: 1}, // ties everywhere
	{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 0}, // no bound: PathBand -1
}

// TestTraceBandIdentity runs checkTraceBand over random extension
// problems with indels, each scoring in turn, through one workspace driven
// largest, smallest, second largest, … so every small fill runs over
// memory a larger one just dirtied, and a larger one over a smaller one's.
func TestTraceBandIdentity(t *testing.T) {
	type problem struct {
		q, tg []byte
		h0    int
	}
	rng := rand.New(rand.NewSource(15))
	var ps []problem
	for k := 0; k < 400; k++ {
		q, tg, h0 := extensionCase(rng)
		switch k % 8 {
		case 0: // a long gap early in the query
			q = append(append([]byte(nil), q[:5]...), q[min(len(q), 5+rng.Intn(12)):]...)
		case 1: // low start score: the path dies early
			h0 = 1 + rng.Intn(6)
		case 2: // unrelated sequences
			q = randSeq(rng, len(q))
		}
		ps = append(ps, problem{q, tg, h0})
	}
	sort.SliceStable(ps, func(i, j int) bool { return len(ps[i].q)*len(ps[i].tg) > len(ps[j].q)*len(ps[j].tg) })
	ws := &TraceWorkspace{}
	for lo, hi := 0, len(ps)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		for _, k := range []int{lo, hi}[:min(2, hi-lo+1)] {
			p := ps[k]
			checkTraceBand(t, ws, p.q, p.tg, p.h0, traceBandScorings[k%len(traceBandScorings)])
		}
	}
}

// FuzzTraceBandIdentity is checkTraceBand over raw bytes: sequences fold
// onto codes 0..7 (ambiguous bases included), the scoring onto small
// penalties including GapOpen 0 and GapExtend 0. One workspace serves the
// whole run, so fills of every size land on each other's leftovers.
func FuzzTraceBandIdentity(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACCA"), []byte("ACGTACGTTGACCAGG"), uint8(20), uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 3, 0, 1, 2, 2, 2, 2, 3, 0, 1, 2, 3}, uint8(30), uint8(1), uint8(4), uint8(0), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0, 0, 0}, uint8(9), uint8(2), uint8(1), uint8(3), uint8(0))
	f.Add([]byte{}, []byte{1, 2}, uint8(5), uint8(1), uint8(1), uint8(1), uint8(1))
	ws := &TraceWorkspace{}
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, h0, match, mismatch, gapOpen, gapExtend uint8) {
		if len(rawQ) > 200 || len(rawT) > 260 {
			return
		}
		q := make([]byte, len(rawQ))
		for i, b := range rawQ {
			q[i] = b & 7
		}
		tg := make([]byte, len(rawT))
		for i, b := range rawT {
			tg[i] = b & 7
		}
		sc := Scoring{Match: 1 + int(match%3), Mismatch: 1 + int(mismatch%6), GapOpen: int(gapOpen % 8), GapExtend: int(gapExtend % 3)}
		checkTraceBand(t, ws, q, tg, int(h0%100), sc)
	})
}
