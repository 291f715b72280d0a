package core

import (
	"math/rand"
	"testing"

	"seedex/internal/align"
)

// Adversarial coverage for the rerun path and the check workflow: the
// rerun path is the checker's containment boundary, and it leans on two
// properties proven here under hostile inputs — Checker.Rerun is always
// bit-identical to the full-band oracle, and a Pass verdict in ModeStrict
// never certifies a result that differs from that oracle, no matter how
// the narrow-band starting score h0 was corrupted. Corruption of the
// *computed* narrow-band score is outside what the checks can see (they
// trust their own kernel); internal/align's fuzz targets hold the packed
// kernels to the scalar reference instead.

// advChecker mints a strict checker for the given band.
func advChecker(band int) *Checker {
	return NewChecker(Config{Band: band, Scoring: align.DefaultScoring(), Kind: SemiGlobal, Mode: ModeStrict})
}

// adversarialSeqs derives a query/target pair from raw fuzz bytes: the
// first half seeds the target, the query is a mutated prefix copy, and
// leftover entropy decides lengths. Bytes are used as-is (the kernels
// must cope with non-nucleotide values).
func adversarialSeqs(data []byte) (q, t []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	half := len(data)/2 + 1
	t = data[:half]
	qlen := len(data) - half
	if qlen > len(t) {
		qlen = len(t)
	}
	q = append([]byte(nil), t[:qlen]...)
	for i := half; i < len(data); i++ {
		if len(q) > 0 {
			q[int(data[i])%len(q)] ^= data[i] >> 3
		}
	}
	return q, t
}

// FuzzRerunOracle: Checker.Rerun equals the full-band oracle for
// arbitrary byte content, lengths and starting scores — including the
// workspace-reuse case where a Check ran first on the same scratch.
func FuzzRerunOracle(f *testing.F) {
	f.Add([]byte("ACGTACGTACGT"), 30)
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 1, 2, 3, 0xff, 0x7f, 9, 9, 9}, 1<<20)
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), 1)
	chk := advChecker(3)
	f.Fuzz(func(t *testing.T, data []byte, h0 int) {
		if h0 < 0 {
			h0 = -h0
		}
		h0 %= 1 << 20
		q, tgt := adversarialSeqs(data)
		want := align.Extend(q, tgt, h0, chk.Config.Scoring)
		if got := chk.Rerun(q, tgt, h0); got != want {
			t.Fatalf("Rerun %+v != oracle %+v (q=%q t=%q h0=%d)", got, want, q, tgt, h0)
		}
		// Dirty the workspace with a check, then rerun again.
		chk.Check(q, tgt, h0)
		if got := chk.Rerun(q, tgt, h0); got != want {
			t.Fatalf("Rerun after Check %+v != oracle %+v", got, want)
		}
	})
}

// fuzzBand folds a raw fuzz int into the band range 1..max. Go's % keeps
// the dividend's sign, so the naive raw%max+1 maps negative raws to
// bands <= 0, where the below-band region is empty and nothing is
// exercised.
func fuzzBand(raw, max int) int { return (raw%max+max)%max + 1 }

// corruptedCase draws a near-copy query/target pair from rng and a seed
// score shifted by h0delta, clamped to [0, 1<<20).
func corruptedCase(rng *rand.Rand, h0delta int) (q, tgt []byte, h0 int) {
	tlen := 20 + rng.Intn(120)
	tgt = make([]byte, tlen)
	for i := range tgt {
		tgt[i] = byte(rng.Intn(4))
	}
	q = append([]byte(nil), tgt[:tlen-rng.Intn(tlen/4+1)]...)
	for k := 0; k < len(q)/10+1; k++ {
		q[rng.Intn(len(q))] = byte(rng.Intn(4))
	}
	h0 = 20 + rng.Intn(80) + h0delta
	if h0 < 0 {
		h0 = 0
	}
	h0 %= 1 << 20
	return q, tgt, h0
}

// assertNeverCertifiesWrong: a strict Pass at this band certifies exactly
// the full-band oracle, and a failing verdict reruns into it.
func assertNeverCertifiesWrong(t *testing.T, band int, q, tgt []byte, h0 int) {
	t.Helper()
	if band < 1 {
		t.Fatalf("band %d: harness must normalise bands to >= 1", band)
	}
	chk := advChecker(band)
	res, rep := chk.Check(q, tgt, h0)
	want := align.Extend(q, tgt, h0, chk.Config.Scoring)
	if rep.Pass {
		if !sameResult(res, want) {
			t.Fatalf("band %d h0 %d: Pass (%v) certified %+v != oracle %+v",
				band, h0, rep.Outcome, res, want)
		}
	} else if got := chk.Rerun(q, tgt, h0); got != want {
		t.Fatalf("band %d h0 %d: rerun %+v != oracle %+v", band, h0, got, want)
	}
}

// FuzzCheckNeverCertifiesWrongScore: with the narrow-band starting score
// corrupted up or down (the check thresholds S1/S2 scale with h0, so a
// corrupted h0 skews every bound), a ModeStrict Pass still implies the
// banded result is bit-identical to the full-band oracle for the same
// inputs, and a failing verdict reruns into exactly that oracle. The
// checks may not assume h0 is trustworthy.
func FuzzCheckNeverCertifiesWrongScore(f *testing.F) {
	f.Add(int64(1), 5, 0)
	f.Add(int64(2), 2, 500)      // corrupted far up
	f.Add(int64(3), 8, -40)      // corrupted down
	f.Add(int64(4), 1, 100000)   // absurdly up: S2 unreachable
	f.Add(int64(5), 16, -100000) // absurdly down, clamped to 0
	f.Add(int64(6), -242, 0)     // negative raw band: must still fold into 1..24
	f.Fuzz(func(t *testing.T, seed int64, band int, h0delta int) {
		q, tgt, h0 := corruptedCase(rand.New(rand.NewSource(seed)), h0delta)
		assertNeverCertifiesWrong(t, fuzzBand(band, 24), q, tgt, h0)
	})
}

func TestFuzzBandRange(t *testing.T) {
	seen := map[int]bool{}
	for raw := -100; raw <= 100; raw++ {
		b := fuzzBand(raw, 24)
		if b < 1 || b > 24 {
			t.Fatalf("fuzzBand(%d) = %d, want 1..24", raw, b)
		}
		seen[b] = true
	}
	if b := fuzzBand(-242, 24); b != 23 {
		t.Fatalf("fuzzBand(-242, 24) = %d, want 23", b)
	}
	if len(seen) != 24 {
		t.Fatalf("fuzzBand reaches %d bands, want all 24", len(seen))
	}
}

// TestAdversarialCorpus runs a broad deterministic corpus through both
// fuzz bodies, so plain `go test` exercises the adversarial coverage
// without the fuzzing engine: many bands, h0 corrupted up and down by
// every interesting magnitude, degenerate and garbage sequences.
func TestAdversarialCorpus(t *testing.T) {
	deltas := []int{-100000, -500, -40, -1, 0, 1, 40, 500, 100000}
	for _, band := range []int{1, 2, 5, 12, 24} {
		// Same audit as the fuzz harness: a band only exercises the
		// checks where the below-band region has cells (tlen > band).
		exercised := 0
		for _, delta := range deltas {
			for seed := int64(0); seed < 8; seed++ {
				q, tgt, h0 := corruptedCase(rand.New(rand.NewSource(seed*1000+int64(band))), delta)
				assertNeverCertifiesWrong(t, band, q, tgt, h0)
				if len(tgt) > band {
					exercised++
				}
			}
		}
		if exercised == 0 {
			t.Fatalf("band %d: no corpus case has a non-empty below-band region", band)
		}
	}
	// Garbage bytes and degenerate shapes through the rerun path.
	garbage := [][]byte{nil, {}, {0xff}, {0, 0, 0, 0}, []byte("not dna at all!"), make([]byte, 300)}
	chk := advChecker(4)
	for _, g := range garbage {
		q, tgt := adversarialSeqs(g)
		for _, h0 := range []int{0, 1, 77, 1 << 19} {
			want := align.Extend(q, tgt, h0, chk.Config.Scoring)
			if got := chk.Rerun(q, tgt, h0); got != want {
				t.Fatalf("garbage rerun %+v != oracle %+v (q=%q)", got, want, q)
			}
		}
	}
}
