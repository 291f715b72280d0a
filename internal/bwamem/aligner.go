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
	"fmt"
	"sort"

	"seedex/internal/align"
	"seedex/internal/chain"
	"seedex/internal/core"
	"seedex/internal/ert"
	"seedex/internal/fmindex"
	"seedex/internal/genome"
	"seedex/internal/prefilter"
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
	// Prefilter enables the bit-parallel pre-alignment filter tier:
	// chains are screened with a GateKeeper-style shifted-hamming mask
	// before extension, and rejected chains are only extended if their
	// certified score bound could still influence the final mapping.
	// Final mappings are bit-identical with the filter on or off; only
	// the Extensions cost counter differs.
	Prefilter bool
	// PrefilterThreshold is the filter's edit threshold as a fraction of
	// the read length (<=0 uses DefaultPrefilterThreshold).
	PrefilterThreshold float64
}

// DefaultPrefilterThreshold is the edit threshold fraction used when
// Options.PrefilterThreshold is unset: ~2 edits on a 101 bp read, sized
// to the variant + sequencing-error budget of a true alignment.
const DefaultPrefilterThreshold = 0.02

// DefaultOptions mirrors BWA-MEM-flavoured settings.
func DefaultOptions() Options {
	return Options{ClipPenalty: 5, MaxChains: 5, BandCap: 100, TraceBand: -1, MaxSeedsPerChain: 8}
}

// prefilterEdits resolves the edit threshold for a read length.
func (o Options) prefilterEdits(readLen int) int {
	th := o.PrefilterThreshold
	if th <= 0 {
		th = DefaultPrefilterThreshold
	}
	return max(1, int(th*float64(readLen)))
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
	// Filter optionally overrides the pre-alignment filter used when
	// Opts.Prefilter is set. Leave nil to get a fresh prefilter.SHD per
	// read (safe under concurrent AlignRead calls); a non-nil Filter is
	// shared as-is and must be goroutine-safe if the Aligner is.
	Filter prefilter.Filter
	// Stats, when set, receives the prefilter pass/reject/rescue/false-
	// pass counters (lock-free atomics, shared across workers).
	Stats *core.Stats
	// trace is the traceback matrix backing of a per-worker copy (Mapper,
	// Run's workers); nil on a shared Aligner, which allocates per read.
	trace *align.TraceWorkspace
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
	r, err := BuildReference(contigs)
	if err != nil {
		return nil, err
	}
	ix, err := fmindex.New(r.Cat)
	if err != nil {
		return nil, fmt.Errorf("bwamem: %w", err)
	}
	return &Aligner{
		RefName:  r.Names[0],
		Ref:      r.Cat,
		Contigs:  r,
		Seeder:   FMSeeder{Index: ix, Cfg: fmindex.DefaultSMEMConfig(), Select: DefaultSeedSelection()},
		Extender: ext,
		Scoring:  align.DefaultScoring(),
		Opts:     DefaultOptions(),
		ChainCfg: chain.DefaultConfig(),
	}, nil
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
	// in the paper's workload characterization). With the prefilter tier
	// on it counts only the extensions actually performed, so it is the
	// one Alignment field allowed to differ between filter on and off.
	Extensions int
	// PrefilterPass/PrefilterReject/PrefilterRescued tally the filter
	// tier's verdicts for this read (zero when the tier is off).
	PrefilterPass    int
	PrefilterReject  int
	PrefilterRescued int
	// RescueRounds counts the rescue fixpoint iterations that extended at
	// least one previously-rejected chain (0 = no rescue loop entered).
	RescueRounds int
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
	lh0, rh0       int
	weight         int
	// ord is the chain's position in the unfiltered extension order
	// (strand-major, then chain rank); the final sort tie-break, so the
	// candidate ranking is identical whether a chain was extended up
	// front or rescued later.
	ord int
	// rescued marks candidates extended by the prefilter rescue pass.
	rescued bool
}

// AlignRead aligns one read (base codes; ambiguous bases allowed).
func (a *Aligner) AlignRead(read []byte) Alignment {
	cands, ext, tally := a.candidates(read)
	var al Alignment
	if len(cands) == 0 {
		al = Alignment{Extensions: ext}
	} else {
		best := cands[0]
		sub := competingScore(cands, best, len(read))
		al = a.finish(read, best, sub, ext)
		tally.countFalsePasses(cands, sub, len(read))
	}
	al.PrefilterPass = tally.pass
	al.PrefilterReject = tally.reject
	al.PrefilterRescued = tally.rescued
	al.RescueRounds = tally.rounds
	tally.record(a.Stats)
	return al
}

// filterTally accumulates one read's prefilter activity.
type filterTally struct {
	pass, reject, rescued, falsePass int
	rounds                           int // rescue fixpoint iterations that rescued chains
}

// countFalsePasses counts the passed candidates that contributed nothing
// to the final mapping: not the winner, and not a competing (distant)
// score at or above the reported SubScore. These are the extensions a
// sharper filter would also have avoided.
func (t *filterTally) countFalsePasses(cands []candidate, sub, readLen int) {
	if t.pass == 0 {
		return
	}
	useful := 0
	best := cands[0]
	for i, c := range cands {
		if c.rescued {
			continue
		}
		distant := c.pos > best.pos+readLen || c.pos < best.pos-readLen || c.rev != best.rev
		if i == 0 || (distant && sub > 0 && c.score >= sub) {
			useful++
		}
	}
	t.falsePass = max(t.pass-useful, 0)
}

func (t *filterTally) record(st *core.Stats) {
	if st == nil || t.pass+t.reject == 0 {
		return
	}
	st.PrefilterPass.Add(int64(t.pass))
	st.PrefilterReject.Add(int64(t.reject))
	st.PrefilterRescued.Add(int64(t.rescued))
	st.PrefilterFalsePass.Add(int64(t.falsePass))
}

// chainWork is one chain queued for the read-level extension batch: the
// strand-oriented query it extends against plus its range [lo,hi) in the
// flattened per-seed candidate slice.
type chainWork struct {
	q      []byte
	c      chain.Chain
	ord    int
	lo, hi int
}

// candidates seeds, chains and extends the read on both strands,
// returning the surviving candidates sorted best-first plus the number
// of extensions performed. Against a batch-capable extender, extension is
// two-phase across the WHOLE read — every chain of both strands
// contributes its seeds to one left-extension batch and one
// right-extension batch — so the downstream shape bins see the read's
// full mix of subproblems at once instead of per-chain trickles.
func (a *Aligner) candidates(read []byte) ([]candidate, int, filterTally) {
	return a.candidatesFiltered(read, true)
}

// candidatesFiltered is candidates with the prefilter tier gated: the
// paired-end path passes allowFilter=false (see AlignPair).
func (a *Aligner) candidatesFiltered(read []byte, allowFilter bool) ([]candidate, int, filterTally) {
	var tally filterTally
	var cands []candidate
	ext := 0
	var dualSeeds []chain.Seed
	ds, isDual := a.Seeder.(DualSeeder)
	if isDual {
		dualSeeds = ds.SeedsBoth(read)
	}
	be, isBatch := a.Extender.(align.BatchExtender)
	var fc *filterCtx
	if allowFilter {
		fc = a.newFilterCtx(read)
	}
	var work []chainWork
	var rej []rejChain
	ord := 0
	for _, rev := range []bool{false, true} {
		q := read
		if rev {
			q = genome.RevComp(read)
		}
		var seeds []chain.Seed
		if isDual {
			for _, s := range dualSeeds {
				if s.Rev == rev {
					seeds = append(seeds, s)
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
			if fc != nil {
				if ub, rejected := fc.screen(q, c); rejected {
					rej = append(rej, rejChain{q: q, c: c, ord: ord, ub: ub})
					tally.reject++
					continue
				}
				tally.pass++
			}
			if isBatch {
				work = append(work, chainWork{q: q, c: c, ord: ord})
				continue
			}
			cand, n := a.alignChain(q, c)
			ext += n
			cand.weight = c.Weight
			cand.ord = ord
			cands = append(cands, cand)
		}
	}
	if len(work) > 0 {
		batched, n := a.alignChainsBatch(work, be)
		ext += n
		cands = append(cands, batched...)
	}
	cands = a.dropCrossContig(cands)
	sortCandidates(cands)

	// Score-bound rescue, iterated to a fixpoint: a rejected chain whose
	// certified upper bound could still reach the final Score or SubScore
	// is extended after all, so the reported mapping (and its quality)
	// never depends on what the filter skipped. A rescue can move the
	// floors — e.g. install a new best at a shifted position, exposing a
	// previously-safe reject to the SubScore comparison — so the
	// remaining rejects are re-examined until no bound clears them.
	for len(rej) > 0 {
		floorBest, floorSub := -1, -1
		if len(cands) > 0 {
			floorBest = cands[0].score
			floorSub = competingScore(cands, cands[0], len(read))
		}
		var rescue []rejChain
		keep := rej[:0]
		for _, r := range rej {
			if floorBest < 0 || r.ub >= floorBest || r.ub > floorSub {
				rescue = append(rescue, r)
			} else {
				keep = append(keep, r)
			}
		}
		rej = keep
		if len(rescue) == 0 {
			break
		}
		tally.rescued += len(rescue)
		tally.rounds++
		var rcands []candidate
		if isBatch {
			rwork := make([]chainWork, len(rescue))
			for i, r := range rescue {
				rwork[i] = chainWork{q: r.q, c: r.c, ord: r.ord}
			}
			var n int
			rcands, n = a.alignChainsBatch(rwork, be)
			ext += n
		} else {
			for _, r := range rescue {
				cand, n := a.alignChain(r.q, r.c)
				ext += n
				cand.weight = r.c.Weight
				cand.ord = r.ord
				rcands = append(rcands, cand)
			}
		}
		for i := range rcands {
			rcands[i].rescued = true
		}
		cands = append(cands, a.dropCrossContig(rcands)...)
		sortCandidates(cands)
	}
	return cands, ext, tally
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
// unfiltered extension order, breaks every remaining tie), so the ranking
// does not depend on whether some candidates joined via the rescue pass.
func sortCandidates(cands []candidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		if cands[i].pos != cands[j].pos {
			return cands[i].pos < cands[j].pos
		}
		if cands[i].rev != cands[j].rev {
			return !cands[i].rev
		}
		return cands[i].ord < cands[j].ord
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
// tie-broken) and truncated to MaxSeedsPerChain — the extension order both
// the sequential and the batched paths share.
func (a *Aligner) chainSeeds(c chain.Chain) []chain.Seed {
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

// alignChain extends every seed of the chain (up to MaxSeedsPerChain,
// longest first) and keeps the best-scoring result — the all-seeds
// batching model BWA-MEM2 and the SeedEx FPGA integration use. Returns
// the winning candidate and the number of extensions performed. This is
// the sequential path; batch-capable extenders go through
// alignChainsBatch, which extends all chains of a read at once.
func (a *Aligner) alignChain(q []byte, c chain.Chain) (candidate, int) {
	var best candidate
	total := 0
	for i, s := range a.chainSeeds(c) {
		cand, n := a.alignSeed(q, c, s)
		total += n
		if i == 0 || cand.score > best.score ||
			(cand.score == best.score && cand.pos < best.pos) {
			best = cand
		}
	}
	return best, total
}

// alignChainsBatch extends every chain of the read (both strands) against
// a batch-capable extender in two phases: all left extensions of all
// chains as one batch, then — because each right extension is seeded by
// its own left side's resolved score — all right extensions as a second
// batch. Per-chain winners and scores are identical to the sequential
// path; the read-level batches exist so SWAR lanes (or the FPGA's cores)
// fill across every seed the read produces, per §V-B's "the FPGA
// processes all seeds in a chain" integration, and so the shape-binned
// schedulers downstream see whole mixed sets rather than per-chain
// trickles. Returns one candidate per chain, in chain order.
func (a *Aligner) alignChainsBatch(work []chainWork, be align.BatchExtender) ([]candidate, int) {
	sc := a.Scoring
	var flat []candidate
	for wi := range work {
		w := &work[wi]
		w.lo = len(flat)
		for _, s := range a.chainSeeds(w.c) {
			flat = append(flat, candidate{rev: w.c.Rev, anchor: s})
		}
		w.hi = len(flat)
	}
	scoreL := make([]int, len(flat))
	jobs := make([]align.Job, 0, len(flat))
	total := 0

	// Phase 1: left extensions of every seed of every chain.
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

	// Phase 2: right extensions, seeded by the resolved left scores.
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

	// Per-chain winner selection, identical to alignChain's rule.
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

// alignSeed extends one seed left and right, resolving BWA-MEM's
// clip-vs-global decision on each side.
func (a *Aligner) alignSeed(q []byte, c chain.Chain, anchor chain.Seed) (candidate, int) {
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
		_, mx := a.trace.NaiveExtend(c.lq[:c.lQ], c.lt[:c.lT], c.lh0, a.Scoring, a.Opts.TraceBand)
		lc, err := align.Traceback(mx, a.Scoring, c.lT, c.lQ)
		if err != nil {
			return nil, err
		}
		cig = cig.Concat(lc.Reverse()) // left side was extended in reverse
	}
	cig = cig.Push(align.OpMatch, c.anchor.Len)
	if c.rQ > 0 {
		_, mx := a.trace.NaiveExtend(c.rq[:c.rQ], c.rt[:c.rT], c.rh0, a.Scoring, a.Opts.TraceBand)
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
