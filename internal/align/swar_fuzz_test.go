package align

// FuzzExtendSWAR drives the batch orchestration (and through it the
// native 16-lane kernel where the host has it, the 4-lane SWAR kernel,
// the tier ladder and lane demotion)
// against the int reference kernel on fuzzer-chosen sequences, scoring,
// band and h0 values. Every input runs on the live back end and, when
// that is the native tier, again on the forced portable ladder, so the
// seed corpus and every fuzzed input cover both. The raw byte stream is chopped
// into up to 24 jobs so single batches mix shapes and overfill the widest
// tier (a 16-lane group plus leftovers), including the degenerate ones
// (empty query, empty target, band wider than the target, h0 at tier
// boundaries).

import (
	"testing"
)

func FuzzExtendSWAR(f *testing.F) {
	// Edge-case seeds: empty query, empty target, band wider than target,
	// tier boundaries, ambiguous codes.
	f.Add([]byte{}, []byte{0, 1, 2, 3}, 10, 5, uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add([]byte{0, 1, 2}, []byte{}, 10, 5, uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 0, 1}, []byte{1, 2}, 12, 100, uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3}, []byte{0, 0, 1, 1, 2, 3, 3}, 127, 21, uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add([]byte{2, 2, 2, 2}, []byte{2, 2, 2, 2}, swarCap16, 3, uint8(2), uint8(3), uint8(5), uint8(2))
	f.Add([]byte{0, 4, 1, 9, 2}, []byte{0, 4, 1, 9, 2}, 50, 2, uint8(1), uint8(4), uint8(6), uint8(1))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3}, []byte{1, 2, 3, 1, 2, 3}, 1, 0, uint8(8), uint8(0), uint8(0), uint8(1))

	f.Fuzz(func(t *testing.T, qraw, traw []byte, h0, w int, ma, mi, gapo, gape uint8) {
		if len(qraw) > 512 || len(traw) > 512 {
			return
		}
		sc := Scoring{Match: int(ma), Mismatch: int(mi), GapOpen: int(gapo), GapExtend: int(gape)}
		if h0 > 100_000 || h0 < -10 {
			h0 = (h0%100_000 + 100_000) % 100_000
		}
		if w > 2000 {
			w = w % 2000
		}
		if w < -1 {
			w = -1
		}
		// Chop the streams into up to 24 jobs of varying lengths so one
		// batch mixes shapes (and tiers, via the per-job h0 perturbation)
		// and can fill a 16-lane group with more than a word to spare.
		var jobs []Job
		for k, qo, to := 0, 0, 0; k < 24 && (qo < len(qraw) || to < len(traw)); k++ {
			qn := (k%5 + 1) * 8
			tn := (k%7 + 1) * 12
			if k >= 16 { // a few deliberately larger shapes in the mix
				qn, tn = (k-14)*32, (k-14)*48
			}
			qe, te := qo+qn, to+tn
			if qe > len(qraw) {
				qe = len(qraw)
			}
			if te > len(traw) {
				te = len(traw)
			}
			jobs = append(jobs, Job{Q: qraw[qo:qe], T: traw[to:te], H0: h0 + k*7 - 3})
			qo, to = qe, te
		}
		if len(jobs) == 0 {
			jobs = []Job{{Q: qraw, T: traw, H0: h0}}
		}

		want := make([]ExtendResult, len(jobs))
		wantBd := make([]BandBoundary, len(jobs))
		for i, jb := range jobs {
			if w >= 0 {
				want[i], wantBd[i] = ExtendBandedRef(jb.Q, jb.T, jb.H0, sc, w)
			} else {
				want[i] = ExtendRef(jb.Q, jb.T, jb.H0, sc)
			}
		}
		check := func(backend string) {
			ws := NewWorkspace()
			res := make([]ExtendResult, len(jobs))
			bds := make([]BandBoundary, len(jobs))
			if w >= 0 {
				ExtendBandedBatchWS(ws, jobs, sc, w, res, bds)
			} else {
				ExtendBatchFullWS(ws, jobs, sc, res)
			}
			for i, jb := range jobs {
				if !sameResult(res[i], want[i]) {
					t.Fatalf("%s: job %d (n=%d m=%d h0=%d w=%d sc=%+v): batch %+v, reference %+v",
						backend, i, len(jb.Q), len(jb.T), jb.H0, w, sc, res[i], want[i])
				}
				if w >= 0 && jb.H0 > 0 && len(jb.Q) > 0 {
					for j := range wantBd[i].E {
						if bds[i].E[j] != wantBd[i].E[j] {
							t.Fatalf("%s: job %d boundary E[%d] (n=%d m=%d h0=%d w=%d sc=%+v): batch %d, reference %d",
								backend, i, j, len(jb.Q), len(jb.T), jb.H0, w, sc, bds[i].E[j], wantBd[i].E[j])
						}
					}
				}
			}
		}
		check("live back end")
		if native16Live {
			forcePortable(t)
			check("portable ladder")
		}
	})
}
