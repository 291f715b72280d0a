package bwamem

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"seedex/internal/align"
	"seedex/internal/chain"
	"seedex/internal/core"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

// candidates is the batch of one, for the tests that look at a read's
// ranked candidates.
func (a *Aligner) candidates(read []byte) ([]candidate, int) {
	plans, _ := a.candidatesBatch(a.batchScratch(), []Read{{Seq: read}})
	return plans[0].cands, plans[0].ext
}

// ---- the per-read map path as it was before reads were pooled ----
//
// referenceAlignRead and what it calls are the replaced code, kept as the
// oracle of TestMapBatchEqualsMap: seeds, chains and extends one read on
// its own (against a batch extender, its chains as one left and one right
// batch; otherwise seed by seed, left then right), copies every window it
// extends, and traces the winner on the TraceBand fill of the endpoint's
// submatrix.

func referenceAlignRead(a *Aligner, read []byte) Alignment {
	cands, ext := referenceCandidates(a, read)
	if len(cands) == 0 {
		return Alignment{Extensions: ext}
	}
	best := cands[0]
	return referenceFinish(a, read, best, competingScore(cands, best, len(read)), ext)
}

func referenceCandidates(a *Aligner, read []byte) ([]candidate, int) {
	var cands []candidate
	ext := 0
	be, isBatch := a.Extender.(align.BatchExtender)
	var work []chainWork
	ord := 0
	for _, rev := range []bool{false, true} {
		q := read
		if rev {
			q = genome.RevComp(read)
		}
		seeds := a.Seeder.Seeds(q)
		for i := range seeds {
			seeds[i].Rev = rev
		}
		chains := chain.Build(seeds, a.ChainCfg)
		for ci, c := range chains {
			if a.Opts.MaxChains > 0 && ci >= a.Opts.MaxChains {
				break
			}
			ord++
			if isBatch {
				work = append(work, chainWork{q: q, c: c, ord: ord})
				continue
			}
			cand, n := referenceAlignChain(a, q, c)
			ext += n
			cand.weight = c.Weight
			cand.ord = ord
			cands = append(cands, cand)
		}
	}
	if len(work) > 0 {
		batched, n := referenceAlignChainsBatch(a, work, be)
		ext += n
		cands = append(cands, batched...)
	}
	cands = a.dropCrossContig(cands)
	sortCandidates(cands)
	return cands, ext
}

func referenceChainSeeds(a *Aligner, c chain.Chain) []chain.Seed {
	seeds := append([]chain.Seed(nil), c.Seeds...)
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].Len != seeds[j].Len {
			return seeds[i].Len > seeds[j].Len
		}
		if seeds[i].RBeg != seeds[j].RBeg {
			return seeds[i].RBeg < seeds[j].RBeg
		}
		return seeds[i].QBeg < seeds[j].QBeg
	})
	if a.Opts.MaxSeedsPerChain > 0 && len(seeds) > a.Opts.MaxSeedsPerChain {
		seeds = seeds[:a.Opts.MaxSeedsPerChain]
	}
	return seeds
}

func referenceAlignChain(a *Aligner, q []byte, c chain.Chain) (candidate, int) {
	var best candidate
	total := 0
	for i, s := range referenceChainSeeds(a, c) {
		cand, n := referenceAlignSeed(a, q, c, s)
		total += n
		if i == 0 || cand.score > best.score ||
			(cand.score == best.score && cand.pos < best.pos) {
			best = cand
		}
	}
	return best, total
}

func referenceAlignSeed(a *Aligner, q []byte, c chain.Chain, anchor chain.Seed) (candidate, int) {
	sc := a.Scoring
	cand := candidate{rev: c.Rev, anchor: anchor}
	n := 0
	band := sc.EstimateBand(len(q), 0, a.Opts.BandCap)

	h0 := anchor.Len * sc.Match
	qb, rb := anchor.QBeg, anchor.RBeg
	scoreL := h0
	if qb > 0 {
		cand.lq = reversed(q[:qb])
		lo := rb - qb - band
		if lo < 0 {
			lo = 0
		}
		cand.lt = reversed(a.Ref[lo:rb])
		cand.lh0 = h0
		res := a.Extender.Extend(cand.lq, cand.lt, h0)
		n++
		scoreL, cand.clipL, cand.lQ, cand.lT = resolveSide(res, qb, h0, a.Opts.ClipPenalty)
	}

	qe, re := anchor.QEnd(), anchor.REnd()
	score := scoreL
	if qe < len(q) {
		cand.rq = append([]byte(nil), q[qe:]...)
		hi := re + (len(q) - qe) + band
		if hi > len(a.Ref) {
			hi = len(a.Ref)
		}
		cand.rt = append([]byte(nil), a.Ref[re:hi]...)
		cand.rh0 = scoreL
		res := a.Extender.Extend(cand.rq, cand.rt, scoreL)
		n++
		score, cand.clipR, cand.rQ, cand.rT = resolveSide(res, len(q)-qe, scoreL, a.Opts.ClipPenalty)
	}
	cand.score = score
	cand.pos = rb - cand.lT
	return cand, n
}

func referenceAlignChainsBatch(a *Aligner, work []chainWork, be align.BatchExtender) ([]candidate, int) {
	sc := a.Scoring
	var flat []candidate
	for wi := range work {
		w := &work[wi]
		w.lo = len(flat)
		for _, s := range referenceChainSeeds(a, w.c) {
			flat = append(flat, candidate{rev: w.c.Rev, anchor: s})
		}
		w.hi = len(flat)
	}
	scoreL := make([]int, len(flat))
	jobs := make([]align.Job, 0, len(flat))
	total := 0

	for wi := range work {
		w := &work[wi]
		band := sc.EstimateBand(len(w.q), 0, a.Opts.BandCap)
		for fi := w.lo; fi < w.hi; fi++ {
			cand := &flat[fi]
			s := cand.anchor
			h0 := s.Len * sc.Match
			scoreL[fi] = h0
			if s.QBeg > 0 {
				cand.lq = reversed(w.q[:s.QBeg])
				lo := s.RBeg - s.QBeg - band
				if lo < 0 {
					lo = 0
				}
				cand.lt = reversed(a.Ref[lo:s.RBeg])
				cand.lh0 = h0
				jobs = append(jobs, align.Job{Q: cand.lq, T: cand.lt, H0: h0})
			}
		}
	}
	results := be.ExtendJobs(jobs, nil)
	ji := 0
	for fi := range flat {
		cand := &flat[fi]
		if s := cand.anchor; s.QBeg > 0 {
			h0 := s.Len * sc.Match
			scoreL[fi], cand.clipL, cand.lQ, cand.lT =
				resolveSide(results[ji], s.QBeg, h0, a.Opts.ClipPenalty)
			ji++
			total++
		}
	}

	jobs = jobs[:0]
	for wi := range work {
		w := &work[wi]
		band := sc.EstimateBand(len(w.q), 0, a.Opts.BandCap)
		for fi := w.lo; fi < w.hi; fi++ {
			cand := &flat[fi]
			s := cand.anchor
			cand.score = scoreL[fi]
			if qe := s.QEnd(); qe < len(w.q) {
				cand.rq = append([]byte(nil), w.q[qe:]...)
				re := s.REnd()
				hi := re + (len(w.q) - qe) + band
				if hi > len(a.Ref) {
					hi = len(a.Ref)
				}
				cand.rt = append([]byte(nil), a.Ref[re:hi]...)
				cand.rh0 = scoreL[fi]
				jobs = append(jobs, align.Job{Q: cand.rq, T: cand.rt, H0: scoreL[fi]})
			}
		}
	}
	results = be.ExtendJobs(jobs, results[:0])
	ji = 0
	for wi := range work {
		w := &work[wi]
		for fi := w.lo; fi < w.hi; fi++ {
			cand := &flat[fi]
			s := cand.anchor
			if qe := s.QEnd(); qe < len(w.q) {
				cand.score, cand.clipR, cand.rQ, cand.rT =
					resolveSide(results[ji], len(w.q)-qe, scoreL[fi], a.Opts.ClipPenalty)
				ji++
				total++
			}
			cand.pos = s.RBeg - cand.lT
		}
	}

	out := make([]candidate, 0, len(work))
	for wi := range work {
		w := &work[wi]
		if w.lo == w.hi {
			continue
		}
		best := flat[w.lo]
		for _, cand := range flat[w.lo+1 : w.hi] {
			if cand.score > best.score || (cand.score == best.score && cand.pos < best.pos) {
				best = cand
			}
		}
		best.weight = w.c.Weight
		best.ord = w.ord
		out = append(out, best)
	}
	return out, total
}

// referenceFinish is finish over referenceBuildCigar.
func referenceFinish(a *Aligner, read []byte, best candidate, sub, ext int) Alignment {
	cig, err := referenceBuildCigar(a, read, best)
	if err != nil {
		return Alignment{Extensions: ext}
	}
	rname, pos := a.RefName, best.pos
	if a.Contigs != nil {
		if ci, off, ok := a.Contigs.Resolve(best.pos); ok {
			rname, pos = a.Contigs.Names[ci], off
		}
	}
	return Alignment{
		Mapped: true, RName: rname, Pos: pos, Rev: best.rev,
		Score: best.score, SubScore: sub,
		MapQ:  mapq(best.score, sub, best.weight, len(read)),
		Cigar: cig, Extensions: ext,
	}
}

// referenceBuildCigar traces each side on the whole TraceBand fill of the
// endpoint's submatrix, in fresh matrices.
func referenceBuildCigar(a *Aligner, read []byte, c candidate) (align.Cigar, error) {
	var cig align.Cigar
	cig = cig.Push(align.OpSoft, c.clipL)
	if c.lQ > 0 {
		_, mx := align.NaiveExtendBanded(c.lq[:c.lQ], c.lt[:c.lT], c.lh0, a.Scoring, a.Opts.TraceBand)
		lc, err := align.Traceback(mx, a.Scoring, c.lT, c.lQ)
		if err != nil {
			return nil, err
		}
		cig = cig.Concat(lc.Reverse())
	}
	cig = cig.Push(align.OpMatch, c.anchor.Len)
	if c.rQ > 0 {
		_, mx := align.NaiveExtendBanded(c.rq[:c.rQ], c.rt[:c.rT], c.rh0, a.Scoring, a.Opts.TraceBand)
		rc, err := align.Traceback(mx, a.Scoring, c.rT, c.rQ)
		if err != nil {
			return nil, err
		}
		cig = cig.Concat(rc)
	}
	cig = cig.Push(align.OpSoft, c.clipR)
	if err := cig.Validate(len(read), cig.TargetLen()); err != nil {
		return nil, err
	}
	return cig, nil
}

// ---- TestMapBatchEqualsMap ----

// batchCorpus is one aligner with the reads to map through it; stats is
// the core.Stats sink its extender's checks count into (nil: it has none).
type batchCorpus struct {
	name  string
	a     *Aligner
	reads []Read
	stats *core.Stats
}

// oddReads are the reads that plan no work: nothing to seed from (junk
// that occurs nowhere, a read shorter than a seed, an empty one) and
// nothing but ambiguous bases. Inside a batch they sit between reads that
// do extend.
func oddReads(rng *rand.Rand) []Read {
	allN := make([]byte, 101)
	for i := range allN {
		allN[i] = genome.N
	}
	junk := make([]byte, 101)
	for i := range junk {
		junk[i] = byte(rng.Intn(4))
	}
	return []Read{{Name: "allN", Seq: allN}, {Name: "junk", Seq: junk}, {Name: "short", Seq: []byte{0, 1, 2}}, {Name: "empty", Seq: []byte{}}}
}

// interleave puts one odd read after every stride regular reads.
func interleave(reads, odd []Read, stride int) []Read {
	var out []Read
	for i, r := range reads {
		out = append(out, r)
		if (i+1)%stride == 0 {
			out = append(out, odd[(i/stride)%len(odd)])
		}
	}
	return out
}

func batchCorpora(t *testing.T) []batchCorpus {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	odd := oddReads(rng)
	var out []batchCorpus

	seedex := func(paper bool) (*core.SeedEx, *core.Stats) {
		se := core.New(20)
		if paper {
			se.Config.Mode = core.ModePaper
		}
		return se, se.Stats
	}
	toReads := func(w traceCorpus) []Read {
		var reads []Read
		for i, seq := range w.reads {
			reads = append(reads, Read{Name: fmt.Sprintf("r%d", i), Seq: seq})
		}
		return interleave(reads, odd, 7)
	}
	for _, cfg := range []struct {
		name      string
		ext       func() (align.Extender, *core.Stats)
		traceBand int
	}{
		{"strict", func() (align.Extender, *core.Stats) { se, st := seedex(false); return se, st }, -1},
		{"paper", func() (align.Extender, *core.Stats) { se, st := seedex(true); return se, st }, -1},
		{"fullband", func() (align.Extender, *core.Stats) { return core.FullBand{Scoring: align.DefaultScoring()}, nil }, -1},
		{"banded5", func() (align.Extender, *core.Stats) {
			return core.Banded{Scoring: align.DefaultScoring(), Band: 5}, nil
		}, 5},
	} {
		ext, stats := cfg.ext()
		for i, w := range traceWorld(t, ext, cfg.traceBand, 240) {
			out = append(out, batchCorpus{cfg.name + []string{"/single", "/multi"}[i], w.a, toReads(w), stats})
		}
	}

	// The repeat-and-decoy genome: reads with a distant full-score copy and
	// heavy chains in decoy windows, with the degenerate shapes that are
	// not all unmapped (an N-run inside a real read, a read of the repeat
	// unit alone, 40 bp of the reference's head and tail, a reverse
	// complement) between them.
	se, stats := seedex(false)
	ref, sim := repeatWorld(t, 240, 21)
	a, err := New("chrSim", ref, se)
	if err != nil {
		t.Fatal(err)
	}
	nRun := append([]byte(nil), ref[5_000:5_101]...)
	for i := 30; i < 70; i++ {
		nRun[i] = genome.N
	}
	shapes := []Read{
		{Name: "nRun", Seq: nRun},
		{Name: "motifOnly", Seq: ref[3_000:3_064]},
		{Name: "head", Seq: ref[:40]},
		{Name: "tail", Seq: ref[len(ref)-40:]},
		{Name: "revComp", Seq: genome.RevComp(ref[12_500:12_601])},
	}
	reads := interleave(interleave(toPipelineReads(sim), shapes, 13), odd, 7)
	out = append(out, batchCorpus{"strict/repeat-decoy", a, reads, stats})
	return out
}

// repeatWorld builds a genome with a long exact repeat (reads inside it
// have a distant competing copy at full score) plus short decoy windows —
// exact copies of repeat stretches scattered through unique background.
// A read with a sequencing error seeds from its error-split SMEM
// segments; a segment's exact copy inside a decoy window grows a heavy
// chain there whose full extension can only reach a mediocre score.
// (Pure-SMEM seeding never produces such chains from sub-maximal matches —
// the decoys must contain whole segments — hence the window tiling.)
func repeatWorld(tb testing.TB, nReads int, seed int64) ([]byte, []readsim.Read) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	unit := genome.Simulate(genome.SimConfig{Length: 4_000}, rng)
	bg := genome.Simulate(genome.SimConfig{Length: 18_000}, rng)
	bgPos := 0
	take := func(n int) []byte { s := bg[bgPos : bgPos+n]; bgPos += n; return s }
	var ref []byte
	ref = append(ref, take(2_000)...)
	ref = append(ref, unit...)
	ref = append(ref, take(2_000)...)
	// Decoy windows tile the unit densely enough that any >=51 bp SMEM
	// segment of an in-repeat read is wholly contained in one of them.
	for w := 0; w+240 <= len(unit); w += 100 {
		ref = append(ref, unit[w:w+240]...)
		ref = append(ref, take(300)...)
	}
	ref = append(ref, unit...)
	ref = append(ref, take(2_000)...)
	cfg := readsim.DefaultConfig(nReads)
	cfg.ErrRate = 0.012 // most reads carry 1-2 errors, splitting their SMEMs
	reads := readsim.Simulate(ref, cfg, rng)
	return ref, reads
}

// TestMapBatchEqualsMap: a read maps the same whatever batch it rides in.
// Over every corpus, MapBatch in batches of 1, 3, 16 and 64 returns, read
// for read, the Alignment (Extensions included) and the SAM bytes that Map
// returns and that the replaced per-read path (referenceAlignRead)
// returns, and each pass over the corpus moves every core.Stats check
// counter by the same amount. Map with the gapless certificate off (every
// traced side filled) returns the same Alignment, CIGAR included.
func TestMapBatchEqualsMap(t *testing.T) {
	for _, c := range batchCorpora(t) {
		t.Run(c.name, func(t *testing.T) {
			if c.stats == nil {
				c.stats = core.NewStats() // no checks: stays zero
			}
			one, filler := c.a.NewMapper(), c.a.NewMapper()
			filler.cp.fillEverySide = true
			var wantAl []Alignment
			var wantSAM []string
			unmapped := 0
			for i, r := range c.reads {
				rec, al := one.Map(r.Name, r.Seq, r.Qual)
				if ref := referenceAlignRead(c.a, r.Seq); !reflect.DeepEqual(al, ref) {
					t.Fatalf("read %d (%s): Map %+v, per-read reference %+v", i, r.Name, al, ref)
				}
				if _, filled := filler.Map(r.Name, r.Seq, r.Qual); !reflect.DeepEqual(filled, al) {
					t.Fatalf("read %d (%s): Map %+v, with every side filled %+v", i, r.Name, al, filled)
				}
				wantAl, wantSAM = append(wantAl, al), append(wantSAM, rec.String())
				if !al.Mapped {
					unmapped++
				}
			}
			if sides, fills := one.cp.scratch.traceSides, one.cp.scratch.traceFills; fills == 0 || fills == sides ||
				filler.cp.scratch.traceFills != sides {
				t.Fatalf("%d of %d traced sides filled (%d with the certificate off): both paths must run", fills, sides, filler.cp.scratch.traceFills)
			}
			if unmapped < len(c.reads)/8 {
				t.Fatalf("only %d of %d reads unmapped: the odd reads are missing", unmapped, len(c.reads))
			}
			// The reference's extender calls counted too; a second per-read
			// pass measures what one pass moves.
			mid := c.stats.Snapshot()
			for _, r := range c.reads {
				one.Map(r.Name, r.Seq, r.Qual)
			}
			perPass := statsDelta(mid, c.stats.Snapshot())
			if perPass.Total == 0 && strings.HasPrefix(c.name, "strict") {
				t.Fatal("the extender's checks are not counted in the compared stats")
			}

			for _, size := range []int{1, 3, 16, 64} {
				m := c.a.NewMapper()
				from := c.stats.Snapshot()
				for lo := 0; lo < len(c.reads); lo += size {
					hi := min(lo+size, len(c.reads))
					recs, als, bt := m.MapBatch(c.reads[lo:hi])
					if len(recs) != hi-lo || len(als) != hi-lo {
						t.Fatalf("batch [%d,%d): %d records, %d alignments", lo, hi, len(recs), len(als))
					}
					for k := range recs {
						if !reflect.DeepEqual(als[k], wantAl[lo+k]) {
							t.Fatalf("batch size %d, read %d: MapBatch %+v, Map %+v", size, lo+k, als[k], wantAl[lo+k])
						}
						if got := recs[k].String(); got != wantSAM[lo+k] {
							t.Fatalf("batch size %d, read %d: SAM differs\n batch: %s\n map:   %s", size, lo+k, got, wantSAM[lo+k])
						}
					}
					if bt.Start.After(bt.Planned) || bt.Planned.After(bt.LeftDone) || bt.LeftDone.After(bt.RightDone) || bt.RightDone.After(bt.End) {
						t.Fatalf("batch [%d,%d): stage times out of order: %+v", lo, hi, bt)
					}
				}
				if got := statsDelta(from, c.stats.Snapshot()); got != perPass {
					t.Fatalf("batch size %d moved the stats by\n %+v\nper-read mapping by\n %+v", size, got, perPass)
				}
			}
		})
	}
}

// statsDelta is to - from, counter by counter.
func statsDelta(from, to core.StatsSnapshot) core.StatsSnapshot {
	d, f := reflect.ValueOf(&to).Elem(), reflect.ValueOf(from)
	for i := 0; i < d.NumField(); i++ {
		if d.Field(i).Kind() == reflect.Array {
			for o := 0; o < d.Field(i).Len(); o++ {
				d.Field(i).Index(o).SetInt(d.Field(i).Index(o).Int() - f.Field(i).Index(o).Int())
			}
			continue
		}
		d.Field(i).SetInt(d.Field(i).Int() - f.Field(i).Int())
	}
	return to
}

// TestMapBatchConcurrentMappers: two Mappers of one Aligner map the same
// batches at the same time (make race covers the shared state — index,
// reference, stats sinks — and the per-session scratch) and agree.
func TestMapBatchConcurrentMappers(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ref := genome.Simulate(genome.SimConfig{Length: 40_000, RepeatFraction: 0.05}, rng)
	cfg := readsim.RealisticConfig(192)
	cfg.ReadLen = 150
	reads := toPipelineReads(readsim.Simulate(ref, cfg, rng))
	a, err := New("chrSim", ref, core.New(20))
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]string
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := a.NewMapper()
			for lo := 0; lo < len(reads); lo += 16 {
				recs, _, _ := m.MapBatch(reads[lo:min(lo+16, len(reads))])
				for _, rec := range recs {
					got[w] = append(got[w], rec.String())
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatal("two concurrent mappers disagree")
	}
}
