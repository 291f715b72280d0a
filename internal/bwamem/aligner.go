// Package bwamem is a from-scratch mini read aligner with the BWA-MEM
// pipeline shape: SMEM seeding, chaining, left/right seed extension
// through a pluggable align.Extender (software full-band, plain banded,
// or the SeedEx speculative extender), host-side traceback for the single
// best extension, and SAM output.
//
// Its purpose in this reproduction is the paper's §V-B integration story:
// the same pipeline run with the SeedEx extender must produce
// byte-identical SAM to the pipeline run with the full-band extender
// (Figure 13 / the 787M-read validation), while the plain banded extender
// exhibits the output differences SeedEx eliminates.
package bwamem

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"seedex/internal/align"
	"seedex/internal/chain"
	"seedex/internal/core"
	"seedex/internal/ert"
	"seedex/internal/fmindex"
	"seedex/internal/genome"
	"seedex/internal/sam"
)

// Seeder produces exact-match seeds for one query strand.
type Seeder interface {
	Seeds(q []byte) []chain.Seed
}

// FMSeeder seeds with SMEMs from the FM index (BWA-MEM's software path).
type FMSeeder struct {
	Index *fmindex.Index
	Cfg   fmindex.SMEMConfig
	// Select prunes repeat-dense MEM sets to the least-frequent
	// non-overlapping subset before position expansion (see seedselect.go).
	Select SeedSelection
}

// Seeds implements Seeder.
func (s FMSeeder) Seeds(q []byte) []chain.Seed {
	mems := selectMEMs(s.Index.SMEMs(q, s.Cfg), s.Select)
	var out []chain.Seed
	for _, m := range mems {
		for _, p := range m.Positions {
			out = append(out, chain.Seed{QBeg: m.QBeg, RBeg: p, Len: m.Len})
		}
	}
	return out
}

// ERTSeeder seeds with the radix-tree accelerator model.
type ERTSeeder struct {
	Index *ert.Index
	Cfg   ert.Config
}

// Seeds implements Seeder.
func (s ERTSeeder) Seeds(q []byte) []chain.Seed { return s.Index.Seeds(q, s.Cfg) }

// DualSeeder is an optional Seeder upgrade: one pass over the forward
// read yields seeds for both strands (the FMD index works this way, like
// BWA itself). Seeds carry Rev and use coordinates in the respective
// strand's query space.
type DualSeeder interface {
	SeedsBoth(read []byte) []chain.Seed
}

// FMDSeeder seeds with Li's bidirectional SMEM algorithm over the FMD
// index: a single search finds supermaximal matches against both genome
// strands at once, BWA-MEM's actual seeding procedure.
type FMDSeeder struct {
	Index *fmindex.FMD
	Cfg   fmindex.SMEMConfig
	// Select prunes repeat-dense MEM sets (see seedselect.go).
	Select SeedSelection
}

var _ DualSeeder = FMDSeeder{}

// Seeds implements Seeder for the forward strand only (prefer SeedsBoth).
func (s FMDSeeder) Seeds(q []byte) []chain.Seed {
	var out []chain.Seed
	for _, m := range selectMEMs(s.Index.SMEMsBi(q, s.Cfg), s.Select) {
		for _, p := range m.Positions {
			out = append(out, chain.Seed{QBeg: m.QBeg, RBeg: p, Len: m.Len})
		}
	}
	return out
}

// SeedsBoth implements DualSeeder: forward hits become forward seeds;
// reverse-strand hits are mirrored into the reverse-complement read's
// coordinate space.
func (s FMDSeeder) SeedsBoth(read []byte) []chain.Seed {
	var out []chain.Seed
	n := len(read)
	for _, m := range selectMEMs(s.Index.SMEMsBi(read, s.Cfg), s.Select) {
		for _, p := range m.Positions {
			out = append(out, chain.Seed{QBeg: m.QBeg, RBeg: p, Len: m.Len})
		}
		for _, p := range m.RCPositions {
			out = append(out, chain.Seed{QBeg: n - (m.QBeg + m.Len), RBeg: p, Len: m.Len, Rev: true})
		}
	}
	return out
}

// Options tunes the aligner.
type Options struct {
	// ClipPenalty is BWA-MEM's end-clipping penalty (pen_clip = 5): the
	// global (to-end) extension wins unless the local score beats it by
	// more than this.
	ClipPenalty int
	// MaxChains caps the chains extended per read.
	MaxChains int
	// BandCap caps the conservative full-band estimate (BWA: w = 100).
	BandCap int
	// TraceBand, when >= 0, performs host traceback against the banded
	// matrix of that width instead of the full matrix; set it to the
	// extender's band for the plain banded pipeline so its (possibly
	// suboptimal) scores remain traceable.
	TraceBand int
	// MaxSeedsPerChain caps the seeds extended per chain. Like BWA-MEM2
	// and the SeedEx FPGA integration (§V-B: "the FPGA processes all
	// seeds in a chain and filters out needless results"), every seed is
	// extended and the best result kept.
	MaxSeedsPerChain int
}

// DefaultOptions mirrors BWA-MEM-flavoured settings.
func DefaultOptions() Options {
	return Options{ClipPenalty: 5, MaxChains: 5, BandCap: 100, TraceBand: -1, MaxSeedsPerChain: 8}
}

// Aligner aligns reads against a (possibly multi-contig) reference.
type Aligner struct {
	RefName  string
	Ref      []byte // sanitized, concatenated base codes
	Contigs  *Reference
	Seeder   Seeder
	Extender align.Extender
	Scoring  align.Scoring
	Opts     Options
	ChainCfg chain.Config
	// Stats records nothing.
	//
	// Deprecated: it fed the removed pre-alignment filter tier's counters;
	// it stays only because the frozen benchmark/layers.go still sets it.
	Stats *core.Stats
	// trace and scratch are the traceback matrix backing and the batch
	// working memory of a per-worker copy (Mapper, Run's workers); nil on a
	// shared Aligner, which allocates per call.
	trace   *align.TraceWorkspace
	scratch *mapScratch
	// fillEverySide makes traceSide fill the matrices even where the
	// gapless certificate holds. Only tests set it, for the differential.
	fillEverySide bool
}

// New assembles an aligner over a single reference sequence with an
// FM-index seeder and the given extender.
func New(refName string, ref []byte, ext align.Extender) (*Aligner, error) {
	return NewMulti([]Contig{{Name: refName, Seq: ref}}, ext)
}

// NewMulti assembles an aligner over several contigs (chromosomes),
// concatenated into one indexed coordinate space with non-matching
// padding between them.
func NewMulti(contigs []Contig, ext align.Extender) (*Aligner, error) {
	r, ix, err := BuildIndex(contigs)
	if err != nil {
		return nil, err
	}
	return NewWithIndex(r, ix, ext), nil
}

// BuildIndex constructs the reference and FM index for contigs: the
// expensive step the refstore container persists.
func BuildIndex(contigs []Contig) (*Reference, *fmindex.Index, error) {
	r, err := BuildReference(contigs)
	if err != nil {
		return nil, nil, err
	}
	ix, err := fmindex.New(r.Cat)
	if err != nil {
		return nil, nil, fmt.Errorf("bwamem: %w", err)
	}
	return r, ix, nil
}

// NewWithIndex assembles an aligner from a prebuilt reference and FM
// index (as BuildIndex returns or a refstore generation holds).
func NewWithIndex(r *Reference, ix *fmindex.Index, ext align.Extender) *Aligner {
	return &Aligner{
		RefName:  r.Names[0],
		Ref:      r.Cat,
		Contigs:  r,
		Seeder:   FMSeeder{Index: ix, Cfg: fmindex.DefaultSMEMConfig(), Select: DefaultSeedSelection()},
		Extender: ext,
		Scoring:  align.DefaultScoring(),
		Opts:     DefaultOptions(),
		ChainCfg: chain.DefaultConfig(),
	}
}

// Alignment is the aligner's internal result for one read.
type Alignment struct {
	Mapped bool
	// RName is the contig the read maps to; Pos is 0-based within it.
	RName    string
	Pos      int
	Rev      bool
	Score    int
	SubScore int
	MapQ     int
	Cigar    align.Cigar
	// Extensions counts extender invocations for this read (~10 per read
	// in the paper's workload characterization): one per non-empty side of
	// every seed extended, the same whatever batch the read rides in.
	Extensions int
}

type candidate struct {
	score        int
	rev          bool
	pos          int // 0-based reference start
	anchor       chain.Seed
	clipL, clipR int
	// Left/right extension endpoints for host traceback.
	lQ, lT, rQ, rT int
	lq, lt, rq, rt []byte // extension subproblems (left ones reversed)
	// Start scores of the two sides: the seed's, and the left side's
	// resolved score (which a missing right side leaves as the total).
	lh0, rh0 int
	weight   int
	// ord is the chain's position in the extension order (strand-major,
	// then chain rank); the final sort tie-break.
	ord int
}

// AlignRead aligns one read (base codes; ambiguous bases allowed): the
// map batch of one.
func (a *Aligner) AlignRead(read []byte) Alignment {
	als, _ := a.alignBatch([]Read{{Seq: read}})
	return als[0]
}

// BatchTimes are the stage boundaries of one map batch, shared by every
// read in it: plan (seed, chain) runs Start..Planned, the pooled left
// extensions Planned..LeftDone, the pooled right extensions
// LeftDone..RightDone, and resolve (ranking, traceback, SAM)
// RightDone..End. Mapper.MapBatch stamps End, after the records render.
type BatchTimes struct {
	Start, Planned, LeftDone, RightDone, End time.Time
}

// alignBatch aligns the reads as one batch (see candidatesBatch). The
// returned slice is the scratch's: valid until the next batch on this
// aligner view. The times stop at RightDone.
func (a *Aligner) alignBatch(reads []Read) ([]Alignment, BatchTimes) {
	s := a.batchScratch()
	plans, bt := a.candidatesBatch(s, reads)
	s.als = s.als[:0]
	for i := range plans {
		p := &plans[i]
		al := Alignment{Extensions: p.ext}
		if len(p.cands) > 0 {
			best := p.cands[0]
			al = a.finish(p.read, best, competingScore(p.cands, best, len(p.read)), p.ext)
		}
		s.als = append(s.als, al)
	}
	return s.als, bt
}

// chainWork is one chain queued for a batch's extension: the read it
// came from, the strand-oriented query it extends against, and its range
// [lo,hi) in the flattened per-seed candidate slice.
type chainWork struct {
	read   int
	q      []byte
	c      chain.Chain
	ord    int
	lo, hi int
}

// readPlan is one read between the phases of a map batch: what plan left
// for it (its range of the batch's work) and what extend and resolve made
// of that.
type readPlan struct {
	read     []byte
	wlo, whi int         // this read's chains in the batch's work
	ext      int         // extensions performed for this read
	cands    []candidate // surviving candidates, best first
}

// mapScratch is the grow-only working memory of one mapping session: one
// batch at a time lives in it, and everything a batch returns (plans,
// candidates, the reversed left windows they point into) stays valid
// until the session's next batch.
type mapScratch struct {
	plans   []readPlan
	work    []chainWork
	flat    []candidate  // one per extended seed, grouped by chain
	cands   []candidate  // the per-chain winners of every read
	seeds   []chain.Seed // chainSeeds' buffer
	jobs    []align.Job
	results []align.ExtendResult
	rev     []byte // arena of reversed left-extension windows and reverse strands
	als     []Alignment
	// The session's traced extension sides, and those of them that filled
	// matrices (the rest the gapless certificate answered).
	traceSides, traceFills int
}

// batchScratch returns the session's scratch, or a fresh one on a shared
// Aligner.
func (a *Aligner) batchScratch() *mapScratch {
	if a.scratch != nil {
		return a.scratch
	}
	return &mapScratch{}
}

// reversed appends b, reversed, to the arena and returns that stretch.
// Growing the arena leaves earlier stretches on the old backing array,
// where they stay intact.
func (s *mapScratch) reversed(b []byte) []byte {
	lo := len(s.rev)
	for i := len(b) - 1; i >= 0; i-- {
		s.rev = append(s.rev, b[i])
	}
	return s.rev[lo:len(s.rev):len(s.rev)]
}

// revComp is reversed with every base complemented: the reverse strand of
// b, in the arena.
func (s *mapScratch) revComp(b []byte) []byte {
	rc := s.reversed(b)
	for i, c := range rc {
		rc[i] = genome.Complement(c)
	}
	return rc
}

// candidatesBatch takes the reads through the three phases of the map
// path as one batch in the scratch s. Plan, per read: seed and chain both
// strands into chains to extend. Extend, once for the batch: every seed
// of every chain of every read contributes to one left-extension batch
// and one right-extension batch, so the extender's SWAR lanes (or the
// FPGA's cores, §V-B: "the FPGA processes all seeds in a chain") fill
// across reads instead of from one read's two or three jobs. Resolve, per
// read: its candidates sorted best-first after the cross-contig drop. A
// read's candidates and extension count are those of a batch holding it
// alone.
func (a *Aligner) candidatesBatch(s *mapScratch, reads []Read) ([]readPlan, BatchTimes) {
	var bt BatchTimes
	bt.Start = time.Now()
	s.plans = slices.Grow(s.plans[:0], len(reads))[:len(reads)]
	s.work, s.rev = s.work[:0], s.rev[:0]
	for ri, r := range reads {
		s.plans[ri] = readPlan{read: r.Seq}
		a.plan(s, ri)
	}
	bt.Planned = time.Now()
	a.extendLeft(s, s.work)
	bt.LeftDone = time.Now()
	a.extendRight(s, s.work)
	s.cands = s.cands[:0]
	for ri := range s.plans {
		p := &s.plans[ri]
		lo := len(s.cands)
		s.cands = winners(s.work[p.wlo:p.whi], s.flat, s.cands)
		p.cands = s.cands[lo:]
	}
	bt.RightDone = time.Now()
	for ri := range s.plans {
		p := &s.plans[ri]
		p.cands = a.dropCrossContig(p.cands)
		sortCandidates(p.cands)
	}
	return s.plans, bt
}

// plan seeds and chains read ri on both strands and queues the chains to
// extend on the batch's work.
func (a *Aligner) plan(s *mapScratch, ri int) {
	p := &s.plans[ri]
	read := p.read
	p.wlo = len(s.work)
	var dualSeeds []chain.Seed
	ds, isDual := a.Seeder.(DualSeeder)
	if isDual {
		dualSeeds = ds.SeedsBoth(read)
	}
	ord := 0
	for _, rev := range []bool{false, true} {
		q := read
		if rev {
			q = s.revComp(read)
		}
		var seeds []chain.Seed
		if isDual {
			for _, sd := range dualSeeds {
				if sd.Rev == rev {
					seeds = append(seeds, sd)
				}
			}
		} else {
			seeds = a.Seeder.Seeds(q)
			for i := range seeds {
				seeds[i].Rev = rev
			}
		}
		chains := chain.Build(seeds, a.ChainCfg)
		for ci, c := range chains {
			if a.Opts.MaxChains > 0 && ci >= a.Opts.MaxChains {
				break
			}
			ord++
			s.work = append(s.work, chainWork{read: ri, q: q, c: c, ord: ord})
		}
	}
	p.whi = len(s.work)
}

// dropCrossContig removes candidates whose alignment span would leave
// its contig (it would overlap the inter-contig padding).
func (a *Aligner) dropCrossContig(cands []candidate) []candidate {
	if a.Contigs == nil {
		return cands
	}
	kept := cands[:0]
	for _, c := range cands {
		span := c.lT + c.anchor.Len + c.rT
		if _, _, ok := a.Contigs.Contains(c.pos, span); ok {
			kept = append(kept, c)
		}
	}
	return kept
}

// sortCandidates ranks candidates best-first with a total order (ord, the
// extension order, breaks every remaining tie).
func sortCandidates(cands []candidate) {
	forwardFirst := func(rev bool) int {
		if rev {
			return 1
		}
		return 0
	}
	slices.SortFunc(cands, func(x, y candidate) int {
		return cmp.Or(y.score-x.score, x.pos-y.pos, forwardFirst(x.rev)-forwardFirst(y.rev), x.ord-y.ord)
	})
}

// competingScore finds the best score at a clearly different locus than
// best (the XS value for mapping quality).
func competingScore(cands []candidate, best candidate, readLen int) int {
	for _, c := range cands {
		if c.pos > best.pos+readLen || c.pos < best.pos-readLen || c.rev != best.rev {
			return c.score
		}
	}
	return 0
}

// finish tracebacks the chosen candidate and assembles the Alignment.
func (a *Aligner) finish(read []byte, best candidate, sub, ext int) Alignment {
	cig, err := a.buildCigar(read, best)
	if err != nil {
		// A traceback failure indicates an internal inconsistency; fail
		// loudly in tests via an unmapped marker.
		return Alignment{Extensions: ext}
	}
	rname, pos := a.RefName, best.pos
	if a.Contigs != nil {
		if ci, off, ok := a.Contigs.Resolve(best.pos); ok {
			rname, pos = a.Contigs.Names[ci], off
		}
	}
	return Alignment{
		Mapped:     true,
		RName:      rname,
		Pos:        pos,
		Rev:        best.rev,
		Score:      best.score,
		SubScore:   sub,
		MapQ:       mapq(best.score, sub, best.weight, len(read)),
		Cigar:      cig,
		Extensions: ext,
	}
}

// chainSeeds returns the chain's seeds sorted longest-first (position
// tie-broken) and truncated to MaxSeedsPerChain — the extension order —
// in dst's backing array when it is large enough.
func (a *Aligner) chainSeeds(dst []chain.Seed, c chain.Chain) []chain.Seed {
	seeds := append(dst[:0], c.Seeds...)
	slices.SortFunc(seeds, func(x, y chain.Seed) int {
		return cmp.Or(y.Len-x.Len, x.RBeg-y.RBeg, x.QBeg-y.QBeg)
	})
	if a.Opts.MaxSeedsPerChain > 0 && len(seeds) > a.Opts.MaxSeedsPerChain {
		seeds = seeds[:a.Opts.MaxSeedsPerChain]
	}
	return seeds
}

// extendLeft starts the extension of every seed of every chain in work
// (up to MaxSeedsPerChain per chain, longest first — the all-seeds model
// BWA-MEM2 and the SeedEx FPGA integration use): it lays the per-seed
// candidates out in s.flat, each chain's range in its work item, and runs
// all their left extensions as one batch through align.ExtendJobs (the
// extender's batch path when it has one, job by job otherwise). Each
// right extension is seeded by its own left side's resolved score, so the
// right sides are a second batch: extendRight. Every extension counts
// towards its read's plan. Windows are not copied: left sides are
// reversed into the scratch arena, right sides alias the query and the
// reference.
func (a *Aligner) extendLeft(s *mapScratch, work []chainWork) {
	sc := a.Scoring
	flat := s.flat[:0]
	for wi := range work {
		w := &work[wi]
		w.lo = len(flat)
		s.seeds = a.chainSeeds(s.seeds, w.c)
		for _, sd := range s.seeds {
			flat = append(flat, candidate{rev: w.c.Rev, anchor: sd})
		}
		w.hi = len(flat)
	}
	s.flat = flat

	jobs := s.jobs[:0]
	for wi := range work {
		w := &work[wi]
		band := sc.EstimateBand(len(w.q), 0, a.Opts.BandCap)
		for fi := w.lo; fi < w.hi; fi++ {
			cand := &flat[fi]
			sd := cand.anchor
			cand.rh0 = sd.Len * sc.Match
			if sd.QBeg > 0 {
				cand.lq = s.reversed(w.q[:sd.QBeg])
				cand.lt = s.reversed(a.Ref[max(sd.RBeg-sd.QBeg-band, 0):sd.RBeg])
				cand.lh0 = cand.rh0
				jobs = append(jobs, align.Job{Q: cand.lq, T: cand.lt, H0: cand.lh0})
			}
		}
	}
	s.jobs = jobs
	s.results = align.ExtendJobs(a.Extender, jobs, s.results)
	ji := 0
	for wi := range work {
		w := &work[wi]
		for fi := w.lo; fi < w.hi; fi++ {
			cand := &flat[fi]
			if sd := cand.anchor; sd.QBeg > 0 {
				cand.rh0, cand.clipL, cand.lQ, cand.lT =
					resolveSide(s.results[ji], sd.QBeg, cand.lh0, a.Opts.ClipPenalty)
				ji++
				s.plans[w.read].ext++
			}
		}
	}
}

// extendRight finishes what extendLeft started on work: the right
// extensions, seeded by the resolved left scores, as one batch, then each
// candidate's total score and reference start.
func (a *Aligner) extendRight(s *mapScratch, work []chainWork) {
	sc := a.Scoring
	flat := s.flat
	jobs := s.jobs[:0]
	for wi := range work {
		w := &work[wi]
		band := sc.EstimateBand(len(w.q), 0, a.Opts.BandCap)
		for fi := w.lo; fi < w.hi; fi++ {
			cand := &flat[fi]
			sd := cand.anchor
			if qe := sd.QEnd(); qe < len(w.q) {
				cand.rq = w.q[qe:]
				re := sd.REnd()
				cand.rt = a.Ref[re:min(re+(len(w.q)-qe)+band, len(a.Ref))]
				jobs = append(jobs, align.Job{Q: cand.rq, T: cand.rt, H0: cand.rh0})
			}
		}
	}
	s.jobs = jobs
	s.results = align.ExtendJobs(a.Extender, jobs, s.results)
	ji := 0
	for wi := range work {
		w := &work[wi]
		for fi := w.lo; fi < w.hi; fi++ {
			cand := &flat[fi]
			sd := cand.anchor
			cand.score = cand.rh0
			if qe := sd.QEnd(); qe < len(w.q) {
				cand.score, cand.clipR, cand.rQ, cand.rT =
					resolveSide(s.results[ji], len(w.q)-qe, cand.rh0, a.Opts.ClipPenalty)
				ji++
				s.plans[w.read].ext++
			}
			cand.pos = sd.RBeg - cand.lT
		}
	}
}

// winners appends each chain's best-scoring seed candidate (leftmost on
// a tie) to dst, in chain order.
func winners(work []chainWork, flat, dst []candidate) []candidate {
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
		dst = append(dst, best)
	}
	return dst
}

// resolveSide applies BWA-MEM's end decision to one extension side:
// prefer reaching the query end (global) unless clipping scores more than
// ClipPenalty better. Returns (score, clippedBases, queryAdvance,
// targetAdvance).
func resolveSide(res align.ExtendResult, sideLen, h0, clipPen int) (int, int, int, int) {
	if sideLen == 0 {
		return h0, 0, 0, 0
	}
	if res.Global > 0 && res.Global >= res.Local-clipPen {
		return res.Global, 0, sideLen, res.GlobalT
	}
	if res.Local <= 0 {
		return h0, sideLen, 0, 0
	}
	return res.Local, sideLen - res.LocalQ, res.LocalQ, res.LocalT
}

// buildCigar performs host-side traceback for the winning candidate only
// (the paper's once-per-read traceback division of labour). Each side's
// matrices are filled over the subproblem trimmed to its resolved endpoint:
// a DP cell depends only on cells with smaller indices (and the band test
// only on the cell's own), so they equal the top-left corner of the whole
// window's matrices cell for cell, and the path never leaves that corner.
func (a *Aligner) buildCigar(read []byte, c candidate) (align.Cigar, error) {
	var cig align.Cigar
	cig = cig.Push(align.OpSoft, c.clipL)
	if c.lQ > 0 {
		lc, err := a.traceSide(c.lq[:c.lQ], c.lt[:c.lT], c.lh0, c.rh0)
		if err != nil {
			return nil, err
		}
		cig = cig.Concat(lc.Reverse()) // left side was extended in reverse
	}
	cig = cig.Push(align.OpMatch, c.anchor.Len)
	if c.rQ > 0 {
		rc, err := a.traceSide(c.rq[:c.rQ], c.rt[:c.rT], c.rh0, c.score)
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

// traceSide traces one extension side from its endpoint (len(t), len(q)),
// which the extender scored score from the start score h0. It asks before
// it fills: a score only the diagonal can reach (Scoring.Gapless) is
// len(q) M with no matrix. Otherwise it fills the matrices only inside the
// band that score allows (Scoring.PathBand) when that is narrower than
// TraceBand. Every path to the endpoint scoring at least score lies in
// that band, and so does every optimal prefix to a cell on such a path; so
// wherever Traceback can step, H, E and F hold their TraceBand-fill
// values, the cells it compares them with hold no more than theirs, and
// each step resolves the same way: same CIGAR.
func (a *Aligner) traceSide(q, t []byte, h0, score int) (align.Cigar, error) {
	gapless := a.Scoring.Gapless(h0, len(q), len(t), score) && !a.fillEverySide
	if s := a.scratch; s != nil {
		s.traceSides++
		if !gapless {
			s.traceFills++
		}
	}
	if gapless {
		return align.Cigar{{Op: align.OpMatch, Len: len(q)}}, nil
	}
	w := a.Opts.TraceBand
	if g := a.Scoring.PathBand(h0, len(q), len(t), score); g >= 0 && (w < 0 || g < w) {
		w = g
	}
	_, mx := a.trace.NaiveExtend(q, t, h0, a.Scoring, w)
	return align.Traceback(mx, a.Scoring, len(t), len(q))
}

// mapq is a BWA-flavoured mapping quality: scaled score margin over the
// best competing alignment, damped for thin seed coverage.
func mapq(best, sub, weight, readLen int) int {
	if best <= 0 {
		return 0
	}
	q := 60 * (best - sub) / best
	if weight*2 < readLen {
		q = q * weight * 2 / readLen
	}
	if q < 0 {
		q = 0
	}
	if q > 60 {
		q = 60
	}
	return q
}

func reversed(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[len(s)-1-i] = c
	}
	return out
}

// ToSAM renders an alignment as a SAM record. The alignment's own RName
// (contig) wins over the fallback refName.
func ToSAM(name string, read []byte, qual []byte, refName string, al Alignment) sam.Record {
	if al.RName != "" {
		refName = al.RName
	}
	rec := sam.Record{QName: name, RName: refName}
	seq := read
	q := qual
	if al.Mapped && al.Rev {
		seq = genome.RevComp(read)
		q = reversed(qual)
		rec.Flag |= sam.FlagReverse
	}
	rec.Seq = genome.Decode(seq)
	rec.Qual = string(q)
	if !al.Mapped {
		rec.Flag |= sam.FlagUnmapped
		return rec
	}
	rec.Pos = al.Pos + 1
	rec.MapQ = al.MapQ
	rec.Cigar = al.Cigar
	rec.Score = al.Score
	rec.SubScore = al.SubScore
	return rec
}
