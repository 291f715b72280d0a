// Package systolic is a cycle-level simulator of the SeedEx BSW core
// (paper §IV-A, Figure 8): a systolic array of banded Smith-Waterman
// processing elements marching along the main diagonal of the DP matrix.
//
// The simulator is functional *and* timed:
//
//   - Functionally it reproduces align.ExtendBanded cell-for-cell — PE p
//     owns matrix diagonal d = p − w, cell (i,j) is computed at wavefront
//     cycle i+j, E values travel from PE p−1, F values from PE p+1, and
//     the diagonal H comes from the PE's own registers two activations
//     back. Local/global score accumulators reproduce BWA-MEM's
//     first-in-scan-order tie-breaking.
//   - Timing-wise it charges the progressive score initialization and the
//     shift-register result reduction (both proportional to the PE count)
//     plus one cycle per anti-diagonal, and reports both the latency and
//     the initiation interval used by the throughput models.
//
// It also models the speculative row-termination optimization: a row is
// cut after more than two consecutive dead cells (once the row has been
// live), and an exception is raised if a positive score later flows into
// the cut region from the row above — such extensions are rerun on the
// host, exactly as §IV-A describes.
package systolic

import (
	"seedex/internal/align"
)

// Core is one banded Smith-Waterman systolic array.
type Core struct {
	// W is the one-sided band: the array covers diagonals |i−j| <= W with
	// PEs() = 2W+1 processing elements.
	W int
	// Scoring is the affine scheme wired into the PEs.
	Scoring align.Scoring
	// SpeculativeRowCut enables the hardware row-termination speculation
	// (with its exception flag). Off by default so the core is exactly
	// the banded kernel.
	SpeculativeRowCut bool
}

// PEs returns the processing-element count of the array.
func (c *Core) PEs() int { return 2*c.W + 1 }

// Run is the outcome of streaming one query/target pair through the core.
type Run struct {
	Result   align.ExtendResult
	Boundary align.BandBoundary
	// Cycles is the end-to-end latency: progressive initialization +
	// wavefront sweep + result reduction.
	Cycles int
	// II is the initiation interval: the cycle distance at which the next
	// pair can enter the array (input shift registers reload while the
	// previous result drains).
	II int
	// ActivePE counts PE activations (cells actually computed); the
	// utilization statistic behind the iso-area throughput claims.
	ActivePE int64
	// Exception is set when the speculative row cut clipped a live score;
	// the extension must be rerun on the host.
	Exception bool
}

// pe holds one processing element's registers.
type pe struct {
	lastH int // H of this PE's previously computed cell (the diagonal input)
	eOut  int // E it produced for the cell below (consumed by PE p+1)
	fOut  int // F it produced for the cell to the right (consumed by PE p-1)
}

// Extend streams query/target through the array.
func (c *Core) Extend(query, target []byte, h0 int) Run {
	n, m := len(query), len(target)
	w := c.W
	sc := c.Scoring
	run := Run{Boundary: align.BandBoundary{E: make([]int, n+1)}}
	run.Cycles = Latency(w, n, m)
	run.II = II(n, m)
	if h0 <= 0 || n == 0 {
		return run
	}

	p := make([]pe, c.PEs())
	cur := make([]pe, c.PEs())
	oe := sc.GapOpen + sc.GapExtend

	// borderH returns the initialization value of border cell (i,0) or
	// (0,j); the hardware injects these progressively through the E/F
	// score channels using a special input symbol.
	borderH := func(i, j int) int {
		k := i + j // exactly one of i,j is zero
		if k > w {
			return 0 // outside the band: dead for the banded machine
		}
		if k == 0 {
			return h0
		}
		v := h0 - sc.GapOpen - k*sc.GapExtend
		if v < 0 {
			v = 0
		}
		return v
	}

	// Row-cut speculation state.
	rowSeenLive := make([]bool, m+1)
	rowDeadRun := make([]int, m+1)
	rowCutAt := make([]int, m+1) // column from which the row is cut; 0 = not cut
	if run.Result.Global == 0 && n <= w {
		if v := borderH(0, n); v > 0 {
			run.Result.Global, run.Result.GlobalT = v, 0
		}
	}

	better := func(hv, i, j int) bool {
		r := &run.Result
		if hv > r.Local {
			return true
		}
		// Wavefront order differs from row-major scan order; replicate
		// BWA's first-in-scan-order tie-breaking explicitly.
		return hv == r.Local && hv > 0 && (i < r.LocalT || (i == r.LocalT && j < r.LocalQ))
	}

	for t := 2; t <= n+m; t++ {
		for pi := range cur {
			cur[pi] = p[pi]
		}
		for pi := 0; pi < c.PEs(); pi++ {
			d := pi - w
			if (t-d)%2 != 0 {
				continue
			}
			j := (t - d) / 2
			i := t - j
			if i < 1 || i > m || j < 1 || j > n {
				continue
			}
			run.ActivePE++

			hDiag := p[pi].lastH
			if i == 1 || j == 1 {
				hDiag = borderH(i-1, j-1)
			}
			eIn := 0
			if i > 1 { // E(1,·) = 0 by initialization
				if pi-1 >= 0 {
					eIn = p[pi-1].eOut
				}
			}
			fIn := 0
			if j > 1 && pi+1 < c.PEs() {
				fIn = p[pi+1].fOut
			}

			var mv int
			if hDiag > 0 {
				mv = hDiag + sc.Sub(target[i-1], query[j-1])
			}
			hv := mv
			if eIn > hv {
				hv = eIn
			}
			if fIn > hv {
				hv = fIn
			}
			if hv < 0 {
				hv = 0
			}
			t1 := hv - oe
			ne := eIn - sc.GapExtend
			if t1 > ne {
				ne = t1
			}
			if ne < 0 {
				ne = 0
			}
			nf := fIn - sc.GapExtend
			if t1 > nf {
				nf = t1
			}
			if nf < 0 {
				nf = 0
			}

			if c.SpeculativeRowCut {
				if rowCutAt[i] != 0 && j >= rowCutAt[i] {
					// The row was cut before this cell: force it dead. If
					// a positive score flows in from the cells above, the
					// speculation was wrong — flag the exception.
					if (hDiag > 0 && mv > 0) || eIn > 0 {
						run.Exception = true
					}
					hv, ne, nf = 0, 0, 0
				} else {
					if hv == 0 && ne == 0 {
						if rowSeenLive[i] {
							rowDeadRun[i]++
							if rowDeadRun[i] > 2 && rowCutAt[i] == 0 {
								rowCutAt[i] = j + 1
							}
						}
					} else {
						rowSeenLive[i] = true
						rowDeadRun[i] = 0
					}
				}
			}

			cur[pi].lastH = hv
			cur[pi].eOut = ne
			cur[pi].fOut = nf

			if better(hv, i, j) {
				run.Result.Local, run.Result.LocalT, run.Result.LocalQ = hv, i, j
			}
			if j == n {
				r := &run.Result
				if hv > r.Global || (hv == r.Global && hv > 0 && i < r.GlobalT) {
					r.Global, r.GlobalT = hv, i
				}
			}
			if d == w {
				run.Boundary.E[j] = ne
			}
			run.Result.Cells++
		}
		p, cur = cur, p
	}
	run.Result.Rows = m
	if mm := n + w; mm < m {
		run.Result.Rows = mm
	}
	return run
}

// Timing model: the one source of BSW timing. The FPGA system simulator
// (internal/fpga) and the ASIC throughput model (internal/hw) charge
// these closed forms, so every hardware figure times an extension exactly
// as Extend does.

// Latency is the end-to-end cycle count of one n×m extension on an array
// with one-sided band w (2w+1 PEs):
//   - progressive score initialization through the PE score channels, one
//     shift per PE (avoiding global wires);
//   - the wavefront march, one cycle per anti-diagonal that intersects
//     the band (the band leaves the matrix after n+w rows, so a narrow
//     core finishes early on long targets);
//   - the drain of the lscore shift-register reduction, one shift per PE
//     (the reduction otherwise overlaps accumulation).
func Latency(w, n, m int) int {
	pes := 2*w + 1
	return pes + n + min(m, n+w) + 1 + pes
}

// II is the initiation interval: the minimum cycle distance between
// consecutive extensions, since the input shift registers must stream
// one full n×m pair.
func II(n, m int) int { return max(n, m) + 1 }
