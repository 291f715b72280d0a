package align

import (
	"math/rand"
	"strings"
	"testing"
)

// checkGapless holds Scoring.Gapless to the matrices on one equal-length
// pair: for every endpoint (n, n) on the diagonal the full fill scores
// alive, whenever that score certifies, the problem trimmed to the
// endpoint and filled in the dirty workspace ws, full and under the band
// the score allows, holds the diagonal's score there and traces n M.
// Returns how many endpoints it certified and how many it left to the
// fill.
func checkGapless(t *testing.T, ws *TraceWorkspace, q, tg []byte, h0 int, sc Scoring) (certified, filled int) {
	t.Helper()
	_, full := NaiveExtend(q, tg, h0, sc)
	diagonal := h0
	for n := 1; n <= len(q); n++ {
		diagonal += sc.Sub(tg[n-1], q[n-1])
		score := full.H[n][n]
		if score <= 0 {
			continue // dead: no path, nothing to certify
		}
		if !sc.Gapless(h0, n, n, score) {
			filled++
			continue
		}
		certified++
		if score != diagonal {
			t.Fatalf("endpoint %d certified at score %d, the diagonal scores %d\nq=%v t=%v h0=%d %+v", n, score, diagonal, q, tg, h0, sc)
		}
		want := Cigar{{OpMatch, n}}.String()
		for _, band := range []int{-1, sc.PathBand(h0, n, n, score)} {
			_, mx := ws.NaiveExtend(q[:n], tg[:n], h0, sc, band)
			got, err := Traceback(mx, sc, n, n)
			if err != nil || got.String() != want || mx.H[n][n] != score {
				t.Fatalf("band %d: endpoint %d certified at score %d; the fill holds %d and traces %s (%v)\nq=%v t=%v h0=%d %+v",
					band, n, score, mx.H[n][n], got, err, q, tg, h0, sc)
			}
		}
	}
	return certified, filled
}

// gaplessCase is an equal-length pair: the query is the target with a few
// substitutions and, half the time, an insertion and a deletion that
// cancel — the gapped path to (n, n) the certificate has to rule out.
func gaplessCase(rng *rand.Rand) (q, tg []byte, h0 int) {
	n := 10 + rng.Intn(90)
	tg = randSeq(rng, n)
	q = append([]byte(nil), tg...)
	for k := rng.Intn(4); k > 0; k-- {
		p := rng.Intn(n)
		q[p] = (q[p] + 1 + byte(rng.Intn(3))) & 3
	}
	if rng.Intn(2) == 0 {
		g := 1 + rng.Intn(3)
		del, ins := rng.Intn(n-g), rng.Intn(n-g)
		q = append(q[:del], q[del+g:]...)                           // g bases dropped here
		q = append(q[:ins], append(randSeq(rng, g), q[ins:]...)...) // and g put in there
	}
	return q, tg, 5 + rng.Intn(60)
}

// TestTraceGaplessCertificate runs checkGapless over random pairs under
// every scoring of the band identity test, one dirty workspace throughout.
func TestTraceGaplessCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ws := &TraceWorkspace{}
	certified, filled := 0, 0
	for k := 0; k < 600; k++ {
		q, tg, h0 := gaplessCase(rng)
		c, f := checkGapless(t, ws, q, tg, h0, traceBandScorings[k%len(traceBandScorings)])
		certified, filled = certified+c, filled+f
	}
	t.Logf("%d endpoints certified, %d left to the fill", certified, filled)
	if certified < 1000 || filled < 1000 {
		t.Fatal("the corpus does not exercise both sides of the ceiling")
	}
}

// checkGaplessExtend holds GaplessExtend to the full-band reference: a
// certified result has ExtendRef's five fields. Reports whether it
// certified.
func checkGaplessExtend(t *testing.T, q, tg []byte, h0 int, sc Scoring) bool {
	t.Helper()
	got, ok := GaplessExtend(q, tg, h0, sc)
	if !ok {
		if got != (ExtendResult{}) {
			t.Fatalf("refused with a non-zero result %+v", got)
		}
		return false
	}
	if want := ExtendRef(q, tg, h0, sc); !sameResult(got, want) {
		t.Fatalf("certified %+v, full band %+v\nq=%v t=%v h0=%d %+v", got, want, q, tg, h0, sc)
	}
	return true
}

// TestGaplessExtend runs checkGaplessExtend over extension windows shaped
// like the mapper's (the target runs past the query) under every scoring
// of the band identity test: gaplessCase pairs with a tail, and
// extensionCase problems.
func TestGaplessExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	certified, refused := 0, 0
	for k := 0; k < 4000; k++ {
		sc := traceBandScorings[k%len(traceBandScorings)]
		q, tg, h0 := gaplessCase(rng)
		if k%2 == 1 {
			q, tg, h0 = extensionCase(rng)
		} else {
			tg = append(tg, randSeq(rng, rng.Intn(30))...)
		}
		if checkGaplessExtend(t, q, tg, h0, sc) {
			certified++
		} else {
			refused++
		}
	}
	t.Logf("%d certified, %d left to the kernels", certified, refused)
	if certified < 500 || refused < 500 {
		t.Fatal("the corpus does not exercise both sides of the ceiling")
	}
}

// FuzzGaplessCertificate is checkGaplessExtend over raw bytes: two
// sequences folded onto codes 0..7, the target at least the query's
// length, a start score and a scoring folded onto small penalties (0
// included). The seeds are harvest-shaped: a read's tail against its
// reference window, with none, one and two substitutions.
func FuzzGaplessCertificate(f *testing.F) {
	codes := func(s string) []byte {
		b := []byte(s)
		for i, c := range b {
			b[i] = byte(strings.IndexByte("ACGT", c))
		}
		return b
	}
	read := codes("ACGTTGCAAGCTTAGGCTACCGATCGATTGCACGTAGCTAGGCTAACGT")
	ref := append(append([]byte(nil), read...), codes("TTGACCAGTACGATTTACGACCGTA")...)
	one := append([]byte(nil), read...)
	one[17] ^= 1
	two := append([]byte(nil), one...)
	two[40] ^= 2
	f.Add(read, ref, uint8(51), uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add(one, ref, uint8(30), uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add(two, ref, uint8(12), uint8(1), uint8(4), uint8(6), uint8(2))
	f.Add([]byte{4, 1, 2}, []byte{4, 1, 2, 3}, uint8(5), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, h0, match, mismatch, gapOpen, gapExtend uint8) {
		n := min(len(rawQ), 200)
		q, tg := make([]byte, n), make([]byte, max(n, min(len(rawT), 260)))
		for i := range q {
			q[i] = rawQ[i] & 7
		}
		for i := range tg {
			if i < len(rawT) {
				tg[i] = rawT[i] & 7
			}
		}
		sc := Scoring{Match: int(match % 3), Mismatch: int(mismatch % 6), GapOpen: int(gapOpen % 8), GapExtend: int(gapExtend % 3)}
		checkGaplessExtend(t, q, tg, int(h0%100), sc)
	})
}

// FuzzTraceGaplessCertificate is checkGapless over raw bytes: two
// sequences folded onto codes 0..7 and cut to the shorter one's length, a
// random start score, the scoring folded onto small penalties (GapOpen 0
// and GapExtend 0 included).
func FuzzTraceGaplessCertificate(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACCA"), []byte("ACGTACGATTGACCA"), uint8(20), uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 0, 1, 2, 3, 3, 0, 1, 2, 3}, uint8(30), uint8(1), uint8(4), uint8(0), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 1, 0, 0}, uint8(9), uint8(2), uint8(1), uint8(3), uint8(0))
	f.Add([]byte{4, 1}, []byte{4, 1}, uint8(5), uint8(1), uint8(1), uint8(1), uint8(1))
	ws := &TraceWorkspace{}
	f.Fuzz(func(t *testing.T, rawQ, rawT []byte, h0, match, mismatch, gapOpen, gapExtend uint8) {
		n := min(len(rawQ), len(rawT), 200)
		q, tg := make([]byte, n), make([]byte, n)
		for i := range q {
			q[i], tg[i] = rawQ[i]&7, rawT[i]&7
		}
		sc := Scoring{Match: 1 + int(match%3), Mismatch: 1 + int(mismatch%6), GapOpen: int(gapOpen % 8), GapExtend: int(gapExtend % 3)}
		checkGapless(t, ws, q, tg, int(h0%100), sc)
	})
}
