package editmachine

import (
	"math/rand"
	"testing"
)

// reachScorings: the canonical scheme, the relaxed scheme of a Match-2
// scoring, two whose mismatches or insertions gain the most per column
// (g > Match), one with Del < 0 (swept in full) and one with Match 0.
var reachScorings = []Relaxed{
	CanonicalRelaxed,
	{Match: 2, Mismatch: 1, Ins: 0, Del: 1},
	{Match: 1, Mismatch: -2, Ins: -1, Del: 3},
	{Match: 1, Mismatch: 1, Ins: -2, Del: 1},
	{Match: 1, Mismatch: 1, Ins: 0, Del: -1},
	{Match: 0, Mismatch: 1, Ins: 1, Del: 0},
}

// reachCase builds a problem whose region is alive: the target holds a
// mutated copy of the query just below the band, after w+1 random bases.
func reachCase(rng *rand.Rand) (q, tg []byte, w, init int) {
	n := rng.Intn(60)
	w = rng.Intn(8)
	q = randSeq(rng, n)
	tg = randSeq(rng, w+1)
	for _, b := range q {
		switch rng.Intn(10) {
		case 0:
			tg = append(tg, byte(rng.Intn(4)))
		case 1: // deletion from the target
		case 2:
			tg = append(tg, b, byte(rng.Intn(5)))
		default:
			tg = append(tg, b)
		}
	}
	tg = append(tg, randSeq(rng, rng.Intn(6))...)
	return q, tg, w, rng.Intn(100) - 20
}

// assertReach compares CornerReachesWS with the full sweep at goals around
// the region's maximum, where the verdict turns.
func assertReach(t *testing.T, ws *Workspace, q, tg []byte, w, init int, rx Relaxed, extra int) {
	t.Helper()
	full := SweepCornerWS(ws, q, tg, w, init, rx)
	for _, goal := range []int{full.Score - 1, full.Score, full.Score + 1, init, init + 1, extra} {
		got := CornerReachesWS(ws, q, tg, w, init, goal, rx)
		want := !full.Empty && full.Score >= goal
		if got.Reached != want {
			t.Fatalf("w=%d init=%d goal=%d rx=%+v: reach %+v, full sweep Empty=%v Score=%d\n q=%v\n t=%v",
				w, init, goal, rx, got, full.Empty, full.Score, q, tg)
		}
		if got.Reached && (got.Score < goal || got.Score > full.Score) || !got.Reached && got.Score != 0 || got.Cells > full.Cells {
			t.Fatalf("w=%d init=%d goal=%d rx=%+v: reach %+v against full Score=%d Cells=%d",
				w, init, goal, rx, got, full.Score, full.Cells)
		}
	}
}

func TestCornerReachesMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ws := NewWorkspace()
	for trial := 0; trial < 3000; trial++ {
		rx := reachScorings[trial%len(reachScorings)]
		var q, tg []byte
		var w, init int
		if trial%2 == 0 {
			q, tg, w, init = reachCase(rng)
		} else {
			q, tg = randSeq(rng, rng.Intn(50)), randSeq(rng, rng.Intn(70))
			w, init = rng.Intn(12)-1, rng.Intn(100)-20
		}
		assertReach(t, ws, q, tg, w, init, rx, init+rng.Intn(len(q)+2))
	}
}

// TestCornerReachesPrunes pins that the early stop and the pruning do
// their work on the shape the checker hands them: a 150-base query whose
// goal sits a band's width above the corner.
func TestCornerReachesPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	var swept, full int64
	for trial := 0; trial < 50; trial++ {
		q, tg := randSeq(rng, 150), randSeq(rng, 170)
		r := SweepCornerWS(ws, q, tg, 20, 100, CanonicalRelaxed)
		got := CornerReachesWS(ws, q, tg, 20, 100, 100+1+rng.Intn(21), CanonicalRelaxed)
		swept += got.Cells
		full += r.Cells
	}
	if swept*2 > full {
		t.Fatalf("goal-directed sweep computed %d of the full sweeps' %d cells", swept, full)
	}
}

// FuzzCornerReaches drives the identity with SweepCornerWS from raw bytes:
// query and target split from data (bases mod 5, so N appears), any band,
// seed score and goal, every scoring of reachScorings.
func FuzzCornerReaches(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0, 1, 2, 3, 0}, uint8(8), 3, 40, 45, uint8(0))
	f.Add([]byte("ACGTACGTTTGACCAGTACGATTTACGACCGTA"), uint8(12), 0, 0, 5, uint8(1))
	f.Add([]byte{4, 4, 4, 0, 0, 0, 0, 0, 0}, uint8(3), 1, -7, -3, uint8(2))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(2), 2, 10, 12, uint8(3))
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte, split uint8, w, init, goal int, scIdx uint8) {
		if len(data) > 300 {
			data = data[:300]
		}
		seq := make([]byte, len(data))
		for i, b := range data {
			seq[i] = b % 5
		}
		k := min(int(split), len(seq))
		w = w%40 - 1
		init, goal = init%1000, goal%1000
		assertReach(t, ws, seq[:k], seq[k:], w, init, reachScorings[int(scIdx)%len(reachScorings)], goal)
	})
}
