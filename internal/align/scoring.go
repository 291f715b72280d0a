// Package align implements the dynamic-programming alignment kernels that
// SeedEx builds on: a BWA-MEM-style semi-global seed-extension kernel
// (full-width and banded), a naive reference implementation used as ground
// truth in tests, band estimation/measurement utilities, and an affine-gap
// traceback producing CIGAR strings.
//
// # Kernel semantics
//
// The extension kernel follows BWA-MEM's ksw_extend. The DP matrix has
// target (reference) rows i = 1..M and query columns j = 1..N, with
// H(0,0) = h0 (the accumulated seed score). The first row and column decay
// by GapOpen + k*GapExtend and are floored at zero. A cell with H = 0 is
// *dead*: the match channel only extends from strictly positive cells
// (M = H(i-1,j-1) > 0 ? H(i-1,j-1)+s : 0), so every scoring path emanates
// from the seed cell and local restarts are impossible. The E (vertical,
// deletion-from-query's-view) and F (horizontal) gap channels follow
//
//	E(i,j) = max(H(i-1,j) - GapOpen, E(i-1,j)) - GapExtend   (floored at 0)
//	F(i,j) = max(H(i,j-1) - GapOpen, F(i,j-1)) - GapExtend   (floored at 0)
//
// with E(1,·) = 0 and F(·,1) = 0 (matching ksw_extend's initialization).
// The kernel reports the best score anywhere (Local) and the best score on
// the right edge j = N where the query is fully consumed (Global), each
// with the first-in-scan-order position achieving it.
package align

import "fmt"

// Scoring is an affine-gap scoring scheme. All penalties are stored as
// positive magnitudes: a mismatch contributes -Mismatch, a gap of length L
// contributes -(GapOpen + L*GapExtend).
type Scoring struct {
	Match     int // match reward (m)
	Mismatch  int // mismatch penalty (x), stored positive
	GapOpen   int // gap opening penalty (go), stored positive
	GapExtend int // gap extension penalty (ge), stored positive
}

// DefaultScoring is BWA-MEM's default scheme saf = {m:1, x:4, go:6, ge:1}.
func DefaultScoring() Scoring {
	return Scoring{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1}
}

// Validate reports an error for scoring parameters that break kernel or
// optimality-check assumptions.
func (s Scoring) Validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("align: Match must be positive, got %d", s.Match)
	}
	if s.Mismatch <= 0 || s.GapOpen < 0 || s.GapExtend <= 0 {
		return fmt.Errorf("align: penalties must be positive (x=%d go=%d ge=%d)", s.Mismatch, s.GapOpen, s.GapExtend)
	}
	return nil
}

// Sub returns the substitution score for base codes a and b. Ambiguous
// bases (code >= 4) always score as mismatches.
func (s Scoring) Sub(a, b byte) int {
	if a == b && a < 4 {
		return s.Match
	}
	return -s.Mismatch
}

// EstimateBand computes the conservative a-priori band ("full-band")
// BWA-MEM uses before an extension: the longest gap that could still leave
// the alignment with a positive score given the query length and the seed
// score h0, capped at cap (pass cap <= 0 for no cap). This is the
// "Estimated" series of the paper's Figure 2.
func (s Scoring) EstimateBand(qlen, h0, cap int) int {
	// A gap of length L costs GapOpen + L*GapExtend; the rest of the
	// query can recover at most qlen*Match on top of the seed score.
	w := (qlen*s.Match + h0 - s.GapOpen) / s.GapExtend
	if w < 1 {
		w = 1
	}
	if cap > 0 && w > cap {
		w = cap
	}
	return w
}

// PathBand bounds the band of an extension path by what it scored. A path
// from the seed cell (start score h0) to cell (tlen, qlen) with total gap
// length g > 0 takes at most min(qlen, tlen) diagonal steps and opens at
// least one gap, so it scores at most
//
//	h0 + min(qlen, tlen)*Match - GapOpen - g*GapExtend;
//
// one that scored score therefore has g at most the value returned, and
// never leaves |i-j| <= g (BWA-MEM's infer_bw). A gapless path stays on
// the diagonal, hence the floor of 0. Returns -1, no bound, when gaps
// extend for free.
func (s Scoring) PathBand(h0, qlen, tlen, score int) int {
	if s.GapExtend <= 0 {
		return -1
	}
	return max(0, (h0+min(qlen, tlen)*s.Match-s.GapOpen-score)/s.GapExtend)
}

// Gapless certifies, without a matrix, that a path which scored score
// from the start score h0 to cell (tlen, qlen) is the diagonal. With
// tlen == qlen a path that contains a gap contains an insertion and a
// deletion — two opens, two extensions, and at most qlen-1 diagonal steps
// — so it scores at most
//
//	h0 + (qlen-1)*Match - 2*GapOpen - 2*GapExtend;
//
// a score above that ceiling is the diagonal's alone, every E and F along
// it is strictly below H, and Traceback returns qlen M (DESIGN.md §6k).
// This holds wherever PathBand returns 0 for an endpoint on the diagonal,
// and with the default scoring as far as a deficit h0+qlen-score of 14:
// two mismatches.
func (s Scoring) Gapless(h0, qlen, tlen, score int) bool {
	return qlen == tlen && score > h0+(qlen-1)*s.Match-2*(s.GapOpen+s.GapExtend)
}

// GaplessExtend answers an extension without a matrix when the main
// diagonal provably holds every optimum. A path with a gap takes at most
// len(query) diagonal steps and pays at least one open and one extension,
// so it scores at most
//
//	h0 + len(query)*Match - GapOpen - GapExtend;
//
// when the diagonal's total clears that ceiling and every prefix of it
// stays alive (above 0), the diagonal owns every cell that reaches its
// best prefix and the right-edge cell (len(query), len(query)), so the
// score fields are its own: Local is the best prefix at the first cell
// reaching it, Global the total at GlobalT = len(query) (DESIGN.md §4).
// It needs len(target) >= len(query), for that right-edge cell to exist.
// Rows and Cells count the diagonal's cells. ok is false, with a zero
// result, whenever the certificate does not hold: the caller runs a
// kernel.
func GaplessExtend(query, target []byte, h0 int, sc Scoring) (res ExtendResult, ok bool) {
	n := len(query)
	if h0 <= 0 || n == 0 || len(target) < n ||
		sc.Match < 0 || sc.Mismatch < 0 || sc.GapOpen < 0 || sc.GapExtend < 0 {
		return ExtendResult{}, false
	}
	// The deficit h0 + k*Match - score of the first k steps never shrinks,
	// so the walk stops as soon as it reaches the ceiling's margin.
	margin := sc.GapOpen + sc.GapExtend
	score := h0
	for k := 1; k <= n; k++ {
		score += sc.Sub(target[k-1], query[k-1])
		if score <= 0 || h0+k*sc.Match-score >= margin {
			return ExtendResult{}, false
		}
		if score > res.Local {
			res.Local, res.LocalT, res.LocalQ = score, k, k
		}
	}
	res.Global, res.GlobalT = score, n
	res.Rows, res.Cells = n, int64(n)
	return res, true
}
