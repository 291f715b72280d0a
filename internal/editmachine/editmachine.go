// Package editmachine implements the SeedEx edit machine (paper §III-D,
// §IV-B): an extra dynamic-programming sweep over the below-band
// ("shaded") trapezoid region using a relaxed, admissible edit scoring
//
//	sr_ed = {m:+1, x:−1, go:0, ge(ins):0, ge(del):−1}
//
// whose result upper-bounds any affine-gap score obtainable through paths
// entering the region from its left boundary. Zero-penalty insertions make
// local maxima propagate horizontally, so a single augmentation unit on
// the region's hypotenuse can read out the region maximum — the property
// that lets the hardware use 3-bit delta-encoded PEs (see
// internal/delta and the DeltaSweep in this package).
//
// The region for band w over a qlen x tlen extension matrix is
// {(i,j) : i−j > w, 1 <= i <= tlen, 0 <= j <= qlen}: every cell below the
// band, including the below-band portion of the right edge (which is what
// makes the check cover global/semi-global endpoints for asymmetric
// string lengths).
package editmachine

import (
	"fmt"
	"math"

	"seedex/internal/align"
)

// negInf marks cells no surviving path reaches; small enough that no
// admissible arithmetic can bring it back above real scores.
const negInf = math.MinInt / 4

// Relaxed is the optimistic edit-style scoring used inside the region.
// Penalties are positive magnitudes; there is no gap-open cost.
type Relaxed struct {
	Match    int // per-base match reward
	Mismatch int // per-base mismatch penalty
	Ins      int // per-base insertion penalty (query-consuming, horizontal)
	Del      int // per-base deletion penalty (target-consuming, vertical)
}

// RelaxedFor returns the paper's relaxed scheme for an affine scoring:
// {m: sc.Match, x:1, ins:0, del:1}.
func RelaxedFor(sc align.Scoring) Relaxed {
	return Relaxed{Match: sc.Match, Mismatch: 1, Ins: 0, Del: 1}
}

// Admissible reports whether r upper-bounds sc move-for-move, i.e. whether
// every relaxed move scores at least as high as the corresponding affine
// move. This is the property that makes the edit-distance check sound.
func (r Relaxed) Admissible(sc align.Scoring) error {
	if r.Match < sc.Match {
		return fmt.Errorf("editmachine: relaxed match %d < affine match %d", r.Match, sc.Match)
	}
	if r.Mismatch > sc.Mismatch {
		return fmt.Errorf("editmachine: relaxed mismatch %d > affine mismatch %d", r.Mismatch, sc.Mismatch)
	}
	// Affine gap of length L costs GapOpen + L*GapExtend >= L*GapExtend.
	if r.Ins > sc.GapExtend || r.Del > sc.GapExtend {
		return fmt.Errorf("editmachine: relaxed gap penalties (%d,%d) exceed affine extend %d", r.Ins, r.Del, sc.GapExtend)
	}
	return nil
}

func (r Relaxed) sub(a, b byte) int {
	if a == b && a < 4 {
		return r.Match
	}
	return -r.Mismatch
}

// RegionResult reports an edit-machine sweep.
type RegionResult struct {
	// Empty is true when the region contains no cells (band covers the
	// matrix); all scores are then negInf and every check passes.
	Empty bool
	// Score is the maximum relaxed score over the region: the paper's
	// score_ed.
	Score int
	// ScorePlusCont is max over region cells of score + (qlen−j)·Match:
	// an upper bound on any path that visits the region and then
	// continues anywhere, paths that re-enter the band included. Under
	// SweepExact it is a constant of the problem shape, which the strict
	// checking mode evaluates in closed form (core.belowBound).
	ScorePlusCont int
	// RightEdge is the maximum relaxed score among region cells with the
	// query fully consumed (j == qlen); negInf if none exist.
	RightEdge int
	// Cells is the number of region cells computed (half-width PE array
	// work; roughly half a full rectangle, Figure 10).
	Cells int64
	// Rows is the number of region rows swept.
	Rows int
}

// SweepCorner runs the paper's edit machine: the region is seeded with a
// single initial score init (the threshold S1) at its top-left corner
// (w+1, 0) and swept with relaxed scoring. Top-boundary cells receive no
// input from the band (those paths are covered by the E-score check).
// It draws scratch from a shared pool; hot callers should hold a Workspace
// and use SweepCornerWS.
func SweepCorner(query, target []byte, w, init int, rx Relaxed) RegionResult {
	ws := wsPool.Get().(*Workspace)
	res := SweepCornerWS(ws, query, target, w, init, rx)
	wsPool.Put(ws)
	return res
}

// SweepExact runs the exact-seeded sweep: column-0 cells are seeded with
// the exact first-column arrival bound h0 − go − i·ge of the affine
// kernel, and top-boundary cells with the E-scores that actually leak out
// of the band (boundaryE, as captured by align.ExtendBanded). The result
// then upper-bounds *every* affine path that ever enters the region —
// including paths that re-enter the band — which is what the strict
// checking mode needs for bit-equivalence of both the local and global
// endpoints.
//
// The strict checker does not call it: the one field it needs,
// ScorePlusCont, is provably the constant h0 − go − (w+1)·ge + qlen·match
// whenever the region is non-empty (DESIGN.md §4), which core evaluates
// in closed form. SweepExact remains as the oracle that pins that closed
// form (core's TestSweepExactClosedForm, FuzzStrictClosedForm,
// TestStrictVerdictIdentity) and for the edit-machine seeding ablation,
// which reads Score.
// It draws scratch from a shared pool; hot callers should hold a Workspace
// and use SweepExactWS.
func SweepExact(query, target []byte, w, h0 int, boundaryE []int, sc align.Scoring, rx Relaxed) RegionResult {
	ws := wsPool.Get().(*Workspace)
	res := SweepExactWS(ws, query, target, w, h0, boundaryE, sc, rx)
	wsPool.Put(ws)
	return res
}

// sweepWS computes the relaxed DP over the region. col0Seed(i) seeds column
// 0 at row i; topSeed[j] (optional) seeds the top-boundary cell
// (j+w+1, j) with the E-score crossing the band's lower boundary there
// (zero means no live crossing and is ignored). No zero-floor is applied:
// scores may run negative, exactly like the 3-bit hardware datapath, which
// only makes the bound more conservative.
func sweepWS(ws *Workspace, query, target []byte, w int, rx Relaxed, col0Seed func(int) int, topSeed []int) RegionResult {
	n, m := len(query), len(target)
	res := RegionResult{Score: negInf, ScorePlusCont: negInf, RightEdge: negInf, Empty: true}
	if w < 0 || m <= w { // first region row is w+1
		return res
	}
	// row[j] holds R(i-1, j) while computing row i.
	row := ws.rowBuf(n)
	for i := w + 1; i <= m; i++ {
		jmax := i - w - 1
		if jmax > n {
			jmax = n
		}
		// Column 0: seeded arrival vs. deletion from the cell above.
		v := col0Seed(i)
		if up := row[0]; up != negInf && up-rx.Del > v {
			v = up - rx.Del
		}
		diag := row[0] // R(i-1, 0), the diagonal input of column 1
		row[0] = v
		res.observe(v, 0, n, rx, n == 0)
		res.Empty = false
		res.Cells++
		left := v
		for j := 1; j <= jmax; j++ {
			d := diag // R(i-1, j-1)
			diag = row[j]
			best := negInf
			if d != negInf {
				best = d + rx.sub(target[i-1], query[j-1])
			}
			if up := row[j]; up != negInf && up-rx.Del > best {
				best = up - rx.Del
			}
			if left != negInf && left-rx.Ins > best {
				best = left - rx.Ins
			}
			if topSeed != nil && i == j+w+1 && j < len(topSeed) && topSeed[j] > 0 && topSeed[j] > best {
				best = topSeed[j]
			}
			row[j] = best
			left = best
			res.Cells++
			res.observe(best, j, n, rx, j == n)
		}
		res.Rows++
	}
	return res
}

func (r *RegionResult) observe(v, j, n int, rx Relaxed, rightEdge bool) {
	if v == negInf {
		return
	}
	if v > r.Score {
		r.Score = v
	}
	if c := v + (n-j)*rx.Match; c > r.ScorePlusCont {
		r.ScorePlusCont = c
	}
	if rightEdge && v > r.RightEdge {
		r.RightEdge = v
	}
}
