// The prefilter tier's pipeline glue: per-read filter context, the
// per-chain screening call, and the bookkeeping for rejected chains.
// The screening itself (shifted-hamming masks, certified score-loss
// bounds) lives in internal/prefilter; this file owns the geometry —
// which reference window a chain's candidates can fall in, and how much
// diagonal drift its seed group grants for free.
package bwamem

import (
	"seedex/internal/chain"
	"seedex/internal/prefilter"
)

// maxFreeDrift caps the chain diagonal spread the filter models. A chain
// whose extended seeds span more diagonals than this is passed through
// unfiltered: such chains are rare, and widening the mask window to
// cover them would cost more than the extensions it could save.
const maxFreeDrift = 12

// rejChain is a chain the filter turned away, kept around so the rescue
// pass can still extend it if its score bound clears a floor.
type rejChain struct {
	q   []byte
	c   chain.Chain
	ord int
	// ub is the certified upper bound on any score an extension of this
	// chain could produce (maxScore - Verdict.LossLB).
	ub int
}

// filterCtx carries one read's prefilter state: the packed queries (one
// per strand, built lazily) and the reusable reference-window scratch.
// One context serves one read of one batch, so a nil Aligner.Filter can
// be backed by a throwaway SHD without any cross-goroutine sharing.
type filterCtx struct {
	a     *Aligner
	f     prefilter.Filter
	e     int
	costs prefilter.Costs
	maxSc int
	qp    [2]prefilter.Packed
	qok   [2]bool
	win   prefilter.Packed
	seeds []chain.Seed // chainSeeds' buffer
}

// newFilterCtx returns the read's filter context, or nil when the tier
// is off (the nil context short-circuits all screening).
func (a *Aligner) newFilterCtx(read []byte) *filterCtx {
	if !a.Opts.Prefilter || len(read) == 0 {
		return nil
	}
	f := a.Filter
	if f == nil {
		f = &prefilter.SHD{}
	}
	sc := a.Scoring
	return &filterCtx{
		a: a,
		f: f,
		e: a.Opts.prefilterEdits(len(read)),
		costs: prefilter.Costs{
			Match: sc.Match, Mismatch: sc.Mismatch,
			GapOpen: sc.GapOpen, GapExtend: sc.GapExtend,
		},
		maxSc: len(read) * sc.Match,
	}
}

// screen checks one chain against the filter. It returns (ub, true) when
// the chain is rejected — ub being the certified upper bound on any
// score its extensions could reach — and (0, false) when the chain must
// be extended. The mask window is anchored on the chain's longest seed;
// the spread between that seed's diagonal and the other extended seeds'
// diagonals is granted to the filter as free drift, since a candidate
// may pass through any of those diagonals without paying gap costs.
func (fc *filterCtx) screen(q []byte, c chain.Chain) (int, bool) {
	fc.seeds = fc.a.chainSeeds(fc.seeds, c)
	seeds := fc.seeds
	if len(seeds) == 0 {
		return 0, false
	}
	anchor := seeds[0]
	drift := 0
	for _, s := range seeds[1:] {
		d := s.Diag() - anchor.Diag()
		if d < 0 {
			d = -d
		}
		drift = max(drift, d)
	}
	if drift > maxFreeDrift {
		return 0, false
	}
	si := 0
	if c.Rev {
		si = 1
	}
	if !fc.qok[si] {
		fc.qp[si].Load(q)
		fc.qok[si] = true
	}
	margin := fc.f.Margin(fc.e, drift)
	p0 := anchor.RBeg - anchor.QBeg
	fc.win.LoadWindow(fc.a.Ref, p0-margin, p0+len(q)+margin)
	v := fc.f.Check(&fc.qp[si], &fc.win, fc.e, drift, fc.costs)
	if v.Accept {
		return 0, false
	}
	return fc.maxSc - v.LossLB, true
}
