package align

import (
	"fmt"
	"math/rand"
	"testing"
)

// batchCase builds a batch of jobs sized for the requested tier: tier8
// keeps every score ceiling within an int8 lane, tier16 within int16,
// mixed spans both plus scalar-tier outliers.
func batchJobs(rng *rand.Rand, count int, tier string) []Job {
	jobs := make([]Job, count)
	for i := range jobs {
		var qlen, h0 int
		switch tier {
		case "tier8":
			qlen = 20 + rng.Intn(80) // ceiling h0 + qlen <= 127 with Match=1
			h0 = 1 + rng.Intn(120-qlen)
		case "tier16":
			qlen = 150 + rng.Intn(200)
			h0 = 100 + rng.Intn(1000)
		default: // mixed
			qlen = 10 + rng.Intn(300)
			h0 = 1 + rng.Intn(2000)
		}
		t := randSeq(rng, qlen+rng.Intn(40))
		q := mutate(rng, t[:min(qlen, len(t))], 0.04, 0.02)
		if len(q) == 0 {
			q = randSeq(rng, 3)
		}
		jobs[i] = Job{Q: q, T: t, H0: h0}
	}
	return jobs
}

// checkBatchMatchesScalar asserts the batch path reproduces the scalar
// per-job kernel bit-for-bit on score fields and boundary E.
func checkBatchMatchesScalar(t *testing.T, jobs []Job, sc Scoring, w int) {
	t.Helper()
	ws := NewWorkspace()
	res := make([]ExtendResult, len(jobs))
	bds := make([]BandBoundary, len(jobs))
	if w >= 0 {
		ExtendBandedBatchWS(ws, jobs, sc, w, res, bds)
	} else {
		ExtendBatchFullWS(ws, jobs, sc, res)
	}
	ref := NewWorkspace()
	for i, jb := range jobs {
		var want ExtendResult
		var wantBd BandBoundary
		if w >= 0 {
			want, wantBd = ExtendBandedWS(ref, jb.Q, jb.T, jb.H0, sc, w)
		} else {
			want = ExtendWS(ref, jb.Q, jb.T, jb.H0, sc)
		}
		if !sameResult(res[i], want) {
			t.Fatalf("job %d (n=%d m=%d h0=%d w=%d): batch %+v, scalar %+v",
				i, len(jb.Q), len(jb.T), jb.H0, w, res[i], want)
		}
		if w >= 0 {
			if len(bds[i].E) != len(jb.Q)+1 {
				t.Fatalf("job %d: boundary len %d, want %d", i, len(bds[i].E), len(jb.Q)+1)
			}
			for j := range wantBd.E {
				if bds[i].E[j] != wantBd.E[j] {
					t.Fatalf("job %d boundary E[%d]: batch %d, scalar %d",
						i, j, bds[i].E[j], wantBd.E[j])
				}
			}
		}
	}
}

func TestBatchMatchesScalarBanded(t *testing.T) {
	for _, tier := range []string{"tier8", "tier16", "mixed"} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			jobs := batchJobs(rng, 1+rng.Intn(40), tier)
			for _, w := range []int{0, 1, 5, 21, 1000} {
				t.Run(fmt.Sprintf("%s/seed%d/w%d", tier, seed, w), func(t *testing.T) {
					checkBatchMatchesScalar(t, jobs, DefaultScoring(), w)
				})
			}
		}
	}
}

func TestBatchMatchesScalarFull(t *testing.T) {
	for _, tier := range []string{"tier8", "tier16", "mixed"} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(200 + seed))
			jobs := batchJobs(rng, 1+rng.Intn(40), tier)
			checkBatchMatchesScalar(t, jobs, DefaultScoring(), -1)
		}
	}
}

func TestBatchRandomScoring(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		sc := Scoring{
			Match:     1 + rng.Intn(8),
			Mismatch:  rng.Intn(10),
			GapOpen:   rng.Intn(12),
			GapExtend: 1 + rng.Intn(6),
		}
		jobs := batchJobs(rng, 1+rng.Intn(24), "mixed")
		w := rng.Intn(60)
		checkBatchMatchesScalar(t, jobs, sc, w)
	}
}

// TestBatchEdgeCases covers the degenerate shapes that exercise lane
// demotion and masking: empty query, empty target, band wider than the
// target, h0 <= 0, ambiguous bases, single-job batches, and h0 at the
// int8 tier boundary.
func TestBatchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	q, tg := randSeq(rng, 30), randSeq(rng, 40)
	amb := randSeq(rng, 25)
	for i := 0; i < len(amb); i += 4 {
		amb[i] = 4 + byte(i%12) // ambiguous / out-of-range codes
	}
	jobs := []Job{
		{Q: nil, T: tg, H0: 10},
		{Q: q, T: nil, H0: 10},
		{Q: q, T: tg, H0: 0},
		{Q: q, T: tg, H0: -5},
		{Q: q[:1], T: tg, H0: 1},
		{Q: q, T: tg[:1], H0: 12},
		{Q: amb, T: tg, H0: 9},
		{Q: q, T: amb, H0: 9},
		{Q: q, T: tg, H0: swarCap8 - len(q)}, // exactly at the int8 ceiling
		{Q: q, T: tg, H0: swarCap8},          // just past it: int16 tier
		{Q: q, T: tg, H0: swarCap16},         // past int16: scalar tier
		{Q: q, T: tg, H0: 97},
	}
	for _, w := range []int{0, 3, 21, 100, 1000} { // incl. band wider than target
		checkBatchMatchesScalar(t, jobs, DefaultScoring(), w)
	}
	checkBatchMatchesScalar(t, jobs, DefaultScoring(), -1)
}

// TestBatchPartialGroups pins lane-group formation: batches smaller than
// a lane group and batches that straddle group boundaries must still be
// bit-identical to the scalar path.
func TestBatchPartialGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	for _, count := range []int{1, 2, 3, 7, 8, 9, 15, 17} {
		jobs := batchJobs(rng, count, "tier8")
		checkBatchMatchesScalar(t, jobs, DefaultScoring(), 21)
	}
}

// TestBatchLaneDemotion pins the divergence rule: one huge problem
// grouped with tiny ones demotes the tiny ones to the scalar path, and
// results stay bit-identical either way.
func TestBatchLaneDemotion(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	big := randSeq(rng, 100)
	jobs := []Job{{Q: big, T: randSeq(rng, 120), H0: 20}}
	for i := 0; i < 7; i++ {
		jobs = append(jobs, Job{Q: randSeq(rng, 3), T: randSeq(rng, 4), H0: 5})
	}
	checkBatchMatchesScalar(t, jobs, DefaultScoring(), 21)
}

func TestBatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	jobs := batchJobs(rng, 32, "mixed")
	ws := NewWorkspace()
	res := make([]ExtendResult, len(jobs))
	bds := make([]BandBoundary, len(jobs))
	ExtendBandedBatchWS(ws, jobs, DefaultScoring(), 21, res, bds) // warm buffers
	allocs := testing.AllocsPerRun(50, func() {
		ExtendBandedBatchWS(ws, jobs, DefaultScoring(), 21, res, bds)
	})
	if allocs != 0 {
		t.Fatalf("ExtendBandedBatchWS allocates %.1f per batch in steady state, want 0", allocs)
	}
}

func BenchmarkBatchKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(800))
	jobs := batchJobs(rng, 512, "tier8")
	sc := DefaultScoring()
	const w = 21
	ws := NewWorkspace()
	res := make([]ExtendResult, len(jobs))
	bds := make([]BandBoundary, len(jobs))
	var cells int64

	b.Run("banded/scalar", func(b *testing.B) {
		cells = 0
		for i := 0; i < b.N; i++ {
			for _, jb := range jobs {
				r, _ := ExtendBandedWS(ws, jb.Q, jb.T, jb.H0, sc, w)
				cells += r.Cells
			}
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	})
	b.Run("banded/swar", func(b *testing.B) {
		cells = 0
		for i := 0; i < b.N; i++ {
			ExtendBandedBatchWS(ws, jobs, sc, w, res, bds)
			for j := range res {
				cells += res[j].Cells
			}
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	})
}

// TestBatch16LaneScoreCeiling pins the tier table's admission boundaries,
// in every case with results bit-identical to the scalar reference. The
// portable ladder (forced, so the expectations hold on any host): a job
// exactly at the int8 score ceiling (h0 + n*Match = 127) still runs in the
// 8-lane int8 tier whatever its shape, one point past it drops to the
// 16-bit tier, past the int16 ceiling to scalar.
// The native tier, where the host has it: everything up to the int16
// ceiling and up to native16MaxDim in both lengths is in, one past either
// falls through to the portable ladder.
func TestBatch16LaneScoreCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sc := DefaultScoring()
	flat := Scoring{Match: 0, Mismatch: 1, GapOpen: 2, GapExtend: 1} // ceiling h0 at any length
	const n = 24
	mkJobs := func(h0, n, m int) []Job {
		jobs := make([]Job, 16)
		for i := range jobs {
			q := make([]byte, n)
			tg := make([]byte, m)
			for j := range q {
				q[j] = byte(rng.Intn(4))
			}
			for j := range tg {
				tg[j] = byte(rng.Intn(4))
			}
			jobs[i] = Job{Q: q, T: tg, H0: h0}
		}
		return jobs
	}
	atCap8 := swarCap8 - n*sc.Match
	atCap16 := swarCap16 - n*sc.Match
	for _, tc := range []struct {
		name   string
		native bool
		sc     Scoring
		h0     int
		n, m   int
		want   int
	}{
		{"at-int8-cap", false, sc, atCap8, n, 60, tierSWAR8},
		{"over-int8-cap", false, sc, atCap8 + 1, n, 60, tierSWAR16},
		{"at-int16-cap", false, sc, atCap16, n, 60, tierSWAR16},
		{"over-int16-cap", false, sc, atCap16 + 1, n, 60, tierScalar},
		{"at-int8-cap-long-target", false, sc, atCap8, n, 600, tierSWAR8},
		{"native/small", true, sc, 1, n, 60, tierNative},
		{"native/at-int16-cap", true, sc, atCap16, n, 60, tierNative},
		{"native/over-int16-cap", true, sc, atCap16 + 1, n, 60, tierScalar},
		{"native/at-max-query", true, flat, 40, native16MaxDim, 60, tierNative},
		{"native/over-max-query", true, flat, 40, native16MaxDim + 1, 60, tierSWAR8},
		{"native/at-max-target", true, flat, 40, n, native16MaxDim, tierNative},
		{"native/over-max-target", true, flat, 40, n, native16MaxDim + 1, tierSWAR8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.native {
				forcePortable(t)
			} else if !native16Live {
				t.Skip("no native tier on this host or build")
			}
			jobs := mkJobs(tc.h0, tc.n, tc.m)
			scTier := swarScoringTier(tc.sc)
			for i := range jobs {
				got := jobTier(len(jobs[i].Q), len(jobs[i].T), jobs[i].H0, tc.sc, scTier)
				if got != tc.want {
					t.Fatalf("jobTier(n=%d m=%d h0=%d) = %s, want %s",
						len(jobs[i].Q), len(jobs[i].T), jobs[i].H0, TierName(got), TierName(tc.want))
				}
			}
			before := KernelSnapshot()
			checkBatchMatchesScalar(t, jobs, tc.sc, 21)
			checkBatchMatchesScalar(t, jobs, tc.sc, -1)
			after := KernelSnapshot()
			if got := after.Jobs[tc.want] - before.Jobs[tc.want]; got < int64(2*len(jobs)) {
				t.Fatalf("tier %s job counter advanced by %d, want >= %d",
					TierName(tc.want), got, 2*len(jobs))
			}
		})
	}
}

// TestNativeLongLanes sweeps native lanes to the last row and column the
// tier admits, where the index lanes sit one below the int16 sign bit: a
// scoring scheme under which nothing decays keeps every in-band cell
// live, so the right-edge capture fires at rows and columns around 32766.
func TestNativeLongLanes(t *testing.T) {
	if !native16Live {
		t.Skip("no native tier on this host or build")
	}
	still := Scoring{Match: 0, Mismatch: 0, GapOpen: 0, GapExtend: 0}
	rng := rand.New(rand.NewSource(78))
	jobs := []Job{
		{Q: randSeq(rng, native16MaxDim), T: randSeq(rng, native16MaxDim), H0: 9},
		{Q: randSeq(rng, native16MaxDim-3), T: randSeq(rng, native16MaxDim), H0: 7},
		{Q: randSeq(rng, native16MaxDim), T: randSeq(rng, native16MaxDim-1), H0: swarCap16},
	}
	before := KernelSnapshot()
	checkBatchMatchesScalar(t, jobs, still, 2)
	if got := KernelSnapshot().Lanes[tierNative] - before.Lanes[tierNative]; got != int64(len(jobs)) {
		t.Fatalf("native lanes filled: %d, want %d", got, len(jobs))
	}
}

// TestBandExtent pins the closed-form Rows/Cells against the row-by-row
// count the SWAR kernels make.
func TestBandExtent(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for m := 0; m <= 12; m++ {
			for w := -1; w <= 14; w++ {
				rows, cells := 0, int64(0)
				for i := 1; i <= m; i++ {
					lo, hi := 1, n
					if w >= 0 {
						lo, hi = max(lo, i-w), min(hi, i+w)
					}
					if lo > hi {
						break
					}
					rows, cells = i, cells+int64(hi-lo+1)
				}
				if gr, gc := bandExtent(n, m, w); gr != rows || gc != cells {
					t.Fatalf("bandExtent(n=%d m=%d w=%d) = %d rows %d cells, want %d, %d", n, m, w, gr, gc, rows, cells)
				}
			}
		}
	}
}

// TestPortableLadder reruns the batch gates above on the pure-Go SWAR
// ladder when the native tier is what they exercised the first time, so
// both back ends pass every one of them on a host that has both.
func TestPortableLadder(t *testing.T) {
	if !native16Live {
		t.Skip("the portable ladder is already the live back end")
	}
	forcePortable(t)
	for _, g := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"BatchMatchesScalarBanded", TestBatchMatchesScalarBanded},
		{"BatchMatchesScalarFull", TestBatchMatchesScalarFull},
		{"BatchRandomScoring", TestBatchRandomScoring},
		{"BatchEdgeCases", TestBatchEdgeCases},
		{"BatchPartialGroups", TestBatchPartialGroups},
		{"BatchLaneDemotion", TestBatchLaneDemotion},
		{"BatchZeroAllocs", TestBatchZeroAllocs},
	} {
		t.Run(g.name, g.run)
	}
}
