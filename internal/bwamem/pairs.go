package bwamem

import (
	"math"
	"sync/atomic"

	"seedex/internal/genome"
	"seedex/internal/sam"
)

// Paired-end alignment: both ends are aligned independently, then the
// candidate pair maximizing joint score plus a proper-pair bonus (FR
// orientation, insert size within the estimated distribution) is chosen
// — a compact version of BWA-MEM's mem_pair. All decisions depend only
// on extender outputs, so the SeedEx and full-band pipelines stay
// byte-identical on paired data too.

// ReadPair is one input fragment's two ends.
type ReadPair struct {
	Name         string
	Seq1, Seq2   []byte
	Qual1, Qual2 []byte
}

// InsertStats is the fragment-length distribution used for pairing.
type InsertStats struct {
	Mean, Std float64
}

// Window returns the accepted proper-pair insert range (mean ± 4σ).
func (s InsertStats) Window() (int, int) {
	lo := int(s.Mean - 4*s.Std)
	hi := int(s.Mean + 4*s.Std)
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// PairStats reports one paired run.
type PairStats struct {
	Pairs       int
	ProperPairs int
	Insert      InsertStats
	Extensions  int64
}

// pairCandLimit caps how many candidates per end enter pairing.
const pairCandLimit = 5

// AlignPair aligns both ends and selects the best joint placement.
func (a *Aligner) AlignPair(p ReadPair, ins InsertStats) (Alignment, Alignment, bool) {
	// Both ends go through the map phases as one batch of two.
	plans, _ := a.candidatesBatch(a.batchScratch(), []Read{{Seq: p.Seq1}, {Seq: p.Seq2}})
	c1, e1 := plans[0].cands, plans[0].ext
	c2, e2 := plans[1].cands, plans[1].ext
	if len(c1) > pairCandLimit {
		c1 = c1[:pairCandLimit]
	}
	if len(c2) > pairCandLimit {
		c2 = c2[:pairCandLimit]
	}
	lo, hi := ins.Window()
	// The pairing bonus approximates -log P(insert); a flat bonus inside
	// the window keeps decisions integral and deterministic.
	bonus := int(a.Scoring.Match * 15)

	bestScore := math.MinInt
	var b1, b2 *candidate
	proper := false
	for i := range c1 {
		for j := range c2 {
			x, y := &c1[i], &c2[j]
			s := x.score + y.score
			ok, _ := properPair(x, y, lo, hi)
			if ok {
				s += bonus
			}
			if s > bestScore {
				bestScore, b1, b2, proper = s, x, y, ok
			}
		}
	}
	var a1, a2 Alignment
	if b1 != nil {
		a1 = a.finish(p.Seq1, *b1, competingScore(c1, *b1, len(p.Seq1)), e1)
	} else {
		a1 = Alignment{Extensions: e1}
	}
	if b2 != nil {
		a2 = a.finish(p.Seq2, *b2, competingScore(c2, *b2, len(p.Seq2)), e2)
	} else {
		a2 = Alignment{Extensions: e2}
	}
	// Unpaired fallbacks: when one end found nothing, align the other
	// end independently (already done via finish above).
	return a1, a2, proper && a1.Mapped && a2.Mapped
}

// properPair tests FR orientation on the same locus with an acceptable
// insert; returns the insert size.
func properPair(x, y *candidate, lo, hi int) (bool, int) {
	if x.rev == y.rev {
		return false, 0
	}
	fwd, rev := x, y
	if x.rev {
		fwd, rev = y, x
	}
	// Forward mate must start before the reverse mate ends (FR).
	insert := (rev.pos + rev.lT + rev.anchor.Len + rev.rT) - fwd.pos
	if insert < lo || insert > hi || fwd.pos > rev.pos {
		return false, insert
	}
	return true, insert
}

// EstimateInsert samples FR insert sizes from confidently-mapped pairs.
func (a *Aligner) EstimateInsert(pairs []ReadPair, sample int) InsertStats {
	if sample <= 0 || sample > len(pairs) {
		sample = len(pairs)
	}
	var sizes []float64
	m := a.NewMapper()
	for i := 0; i < sample; i++ {
		p := pairs[i]
		a1 := m.cp.AlignRead(p.Seq1)
		a2 := m.cp.AlignRead(p.Seq2)
		if !a1.Mapped || !a2.Mapped || a1.Rev == a2.Rev || a1.MapQ < 30 || a2.MapQ < 30 || a1.RName != a2.RName {
			continue
		}
		f, r := a1, a2
		if a1.Rev {
			f, r = a2, a1
		}
		ins := (r.Pos + r.Cigar.TargetLen()) - f.Pos
		if ins > 0 && ins < 10_000 {
			sizes = append(sizes, float64(ins))
		}
	}
	if len(sizes) < 8 {
		return InsertStats{Mean: 400, Std: 100} // uninformed default
	}
	var sum, sq float64
	for _, v := range sizes {
		sum += v
	}
	mean := sum / float64(len(sizes))
	for _, v := range sizes {
		sq += (v - mean) * (v - mean)
	}
	std := math.Sqrt(sq / float64(len(sizes)))
	if std < 10 {
		std = 10
	}
	return InsertStats{Mean: mean, Std: std}
}

// RunPairs aligns all pairs (two SAM records each, in input order):
// pass 1 estimates the insert distribution from a sample, pass 2 pairs
// with it, mirroring BWA-MEM's per-batch insert bootstrapping. Each worker
// pairs on its own Mapper session, as Run's workers map.
func (a *Aligner) RunPairs(pairs []ReadPair, workers int) ([]sam.Record, PairStats) {
	st := PairStats{Pairs: len(pairs)}
	st.Insert = a.EstimateInsert(pairs, 200)

	recs := make([]sam.Record, 2*len(pairs))
	var proper, exts atomic.Int64
	a.eachBlock(len(pairs), 1, workers, func(m *Mapper, i, _ int) {
		p := pairs[i]
		a1, a2, ok := m.cp.AlignPair(p, st.Insert)
		if ok {
			proper.Add(1)
		}
		exts.Add(int64(a1.Extensions + a2.Extensions))
		r1 := ToSAM(p.Name, p.Seq1, orDefaultQual(p.Qual1, len(p.Seq1)), a.RefName, a1)
		r2 := ToSAM(p.Name, p.Seq2, orDefaultQual(p.Qual2, len(p.Seq2)), a.RefName, a2)
		decoratePair(&r1, &r2, a1, a2, ok)
		recs[2*i], recs[2*i+1] = r1, r2
	})
	st.ProperPairs = int(proper.Load())
	st.Extensions = exts.Load()
	return recs, st
}

func orDefaultQual(q []byte, n int) []byte {
	if q != nil {
		return q
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = 'I'
	}
	return out
}

// decoratePair sets the SAM pairing flags and mate fields.
func decoratePair(r1, r2 *sam.Record, a1, a2 Alignment, proper bool) {
	r1.Flag |= sam.FlagPaired | sam.FlagRead1
	r2.Flag |= sam.FlagPaired | sam.FlagRead2
	if proper {
		r1.Flag |= sam.FlagProperPair
		r2.Flag |= sam.FlagProperPair
	}
	if !a2.Mapped {
		r1.Flag |= sam.FlagMateUnmapped
	}
	if !a1.Mapped {
		r2.Flag |= sam.FlagMateUnmapped
	}
	if a2.Mapped && a2.Rev {
		r1.Flag |= sam.FlagMateReverse
	}
	if a1.Mapped && a1.Rev {
		r2.Flag |= sam.FlagMateReverse
	}
	if a1.Mapped && a2.Mapped {
		same := a1.RName == a2.RName
		setMate := func(r *sam.Record, mate Alignment) {
			if same {
				r.RNext = "="
			} else {
				r.RNext = mate.RName
			}
			r.PNext = mate.Pos + 1
		}
		setMate(r1, a2)
		setMate(r2, a1)
		if same {
			f, rr := a1, a2
			sign1 := 1
			if a1.Rev && !a2.Rev {
				f, rr = a2, a1
				sign1 = -1
			}
			tlen := (rr.Pos + rr.Cigar.TargetLen()) - f.Pos
			r1.TLen = sign1 * tlen
			r2.TLen = -sign1 * tlen
		}
	}
}

// SimulatePairs is a small helper for tests and examples: FR read pairs
// with normally distributed insert sizes drawn from a donor sequence.
func SimulatePairs(donor []byte, n, readLen int, meanInsert, stdInsert float64, errRate float64, rng interface {
	Intn(int) int
	Float64() float64
	NormFloat64() float64
}) ([]ReadPair, []int) {
	var pairs []ReadPair
	var truth []int
	for i := 0; i < n; i++ {
		ins := int(meanInsert + stdInsert*rng.NormFloat64())
		if ins < readLen+10 {
			ins = readLen + 10
		}
		if ins >= len(donor)-1 {
			continue
		}
		pos := rng.Intn(len(donor) - ins)
		frag := donor[pos : pos+ins]
		r1 := mutateCopy(frag[:readLen], errRate, rng)
		r2 := genome.RevComp(mutateCopy(frag[len(frag)-readLen:], errRate, rng))
		pairs = append(pairs, ReadPair{Name: pairName(i), Seq1: r1, Seq2: r2})
		truth = append(truth, pos)
	}
	return pairs, truth
}

func pairName(i int) string { return "pair_" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func mutateCopy(s []byte, errRate float64, rng interface {
	Intn(int) int
	Float64() float64
	NormFloat64() float64
}) []byte {
	out := append([]byte(nil), s...)
	for i := range out {
		if rng.Float64() < errRate {
			out[i] = (out[i] + byte(1+rng.Intn(3))) % 4
		}
	}
	return out
}
