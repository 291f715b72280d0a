package align

import "math/bits"

// 8-lane SWAR banded extension kernel.
//
// Eight independent extension problems ride in the eight 8-bit lanes of a
// uint64. One interleaved column record (swarCol) per DP column holds the
// H and E values of all eight problems at that column plus the striped
// query word, and a single row sweep advances all eight DP matrices in
// lockstep over a shared band schedule — the software mirror of the
// paper's systolic array filling its cores from a batch.
//
// Layout invariants (enforced by the tiering in swar.go):
//
//   - Every value the kernel can produce fits in 7 bits: the score ceiling
//     h0 + n*Match of every lane is <= swarCap8, and each penalty
//     magnitude is <= swarCap8. The spare eighth bit per lane is what lets
//     saturating subtract and max run borrow-free in a handful of bitwise
//     ops (satsub8/max8 below) with no cross-lane carries: per-lane
//     intermediates never exceed 0xFE.
//   - Query base codes are compared directly against target base codes
//     (XOR + per-lane zero test) instead of a query profile: with eight
//     different targets per row there is no shared profile row to gather.
//     Codes 0..3 are real bases; past-the-end or ambiguous query positions
//     get sentinel 5 and target positions sentinel 6, so a padded or
//     ambiguous cell can never take the match path and its value only ever
//     decays — padding stays harmless without per-cell branches.
//   - The striped query word qm packs, per lane, the base code in bits
//     0-2, the right-edge flag (j == lane query length) in bit 6, and the
//     column-valid flag in bit 7. The lane comparison masks the XOR to the
//     code field ((qm ^ tw) & swarCode8); colHi is qm & swarH8 and edgeHi
//     is (qm << 1) & swarH8 — the <<1 bleeds each lane's valid bit into
//     its neighbour's bit 0, which the & swarH8 discards.
//   - Lanes whose query (column) or target (row) is exhausted keep
//     sweeping dead padded cells; colHi/edgeHi/rowHi masks exclude them
//     from every capture (local best, global edge, boundary E) and from
//     the liveness word that drives the shared early exit.
//
// The kernel's score fields (Local/LocalT/LocalQ, Global/GlobalT) and the
// boundary E-scores are bit-identical to extendCoreRef; Rows/Cells report
// the full in-band sweep (the packed kernel has no per-lane early
// termination), which no consumer of batch results reads for correctness.

const (
	swarL8    uint64 = 0x0101010101010101 // 1 in every 8-bit lane
	swarH8    uint64 = swarL8 << 7        // lane high bits
	swarM7    uint64 = ^swarH8            // 7-bit payload mask per lane
	swarCode8 uint64 = swarL8 * 7         // 3-bit base-code field per lane

	swarColHi8  uint64 = 0x80 // qm column-valid flag (per lane)
	swarEdgeHi8 uint64 = 0x40 // qm right-edge flag (per lane)
)

// swarCap8 is the largest value (score or penalty) an 8-bit lane may hold.
const swarCap8 = 127

func splat8(v int) uint64 { return uint64(v) * swarL8 }

// satsub8 computes per-lane max(a-b, 0). Every lane of a and b must be
// <= swarCap8: the forced high bit absorbs the borrow of lanes where
// a < b, so borrows never cross lanes.
func satsub8(a, b uint64) uint64 {
	t := (a | swarH8) - b
	u := t & swarH8
	return t & (u - u>>7)
}

// max8 computes the per-lane maximum as b + max(a-b, 0); the sum cannot
// carry because the result is again <= swarCap8.
func max8(a, b uint64) uint64 { return b + satsub8(a, b) }

// swarQM8 builds one lane's striped query byte for column j (1-based):
// code | valid flag | edge flag, or the bare pad sentinel past the end.
func swarQM8(q []byte, n, j int) uint64 {
	if j > n {
		return 5 // query pad/ambiguity sentinel, no flags
	}
	c := uint64(5)
	if b := q[j-1]; b < 4 {
		c = uint64(b)
	}
	c |= swarColHi8
	if j == n {
		c |= swarEdgeHi8
	}
	return c
}

// extendSWAR8 sweeps up to 8 lanes in lockstep. Preconditions (guaranteed
// by the batch orchestration in swar.go): 1 <= len(lanes) <= 8, every
// lane has len(q) >= 1 and h0 >= 1, every lane and the scoring scheme
// pass the swarCap8 tier test. w < 0 selects full width. Results are
// written through lanes[k].res; boundary E-scores into lanes[k].bd (when
// non-nil: pre-zeroed, len(q)+1).
func extendSWAR8(ws *Workspace, lanes []swarLane, sc Scoring, w int) {
	nl := len(lanes)
	var nk, mk [8]int
	nMax, mMax := 0, 0
	for k := 0; k < nl; k++ {
		nk[k] = len(lanes[k].q)
		mk[k] = len(lanes[k].t)
		if nk[k] > nMax {
			nMax = nk[k]
		}
		if mk[k] > mMax {
			mMax = mk[k]
		}
	}
	banded := w >= 0
	effW := w
	if !banded {
		effW = nMax + mMax + 1 // band that never clips: identical to full width
	}

	ws.preparePacked(nMax, mMax)
	cols, tw := ws.pk.cols, ws.pk.tw

	// Lane-transpose the sequences into the striped column records (E
	// starts all-dead) and the target words.
	for j := 1; j <= nMax; j++ {
		var qv uint64
		for k := 0; k < nl; k++ {
			qv |= swarQM8(lanes[k].q, nk[k], j) << (8 * k)
		}
		cols[j] = swarCol{qm: qv}
	}
	for i := 1; i <= mMax; i++ {
		var tv uint64
		for k := 0; k < nl; k++ {
			c := uint64(6) // target pad/ambiguity sentinel
			if i <= mk[k] {
				if b := lanes[k].t[i-1]; b < 4 {
					c = uint64(b)
				}
			}
			tv |= c << (8 * k)
		}
		tw[i] = tv
	}

	maW := splat8(sc.Match)
	miW := splat8(sc.Mismatch)
	geW := splat8(sc.GapExtend)
	oeW := splat8(sc.GapOpen + sc.GapExtend)

	// Row 0: H(0, j) = max(h0 - GapOpen - j*GapExtend, 0), dead above the
	// band. The satsub chain is the clamped recurrence of that formula.
	var h0W uint64
	for k := 0; k < nl; k++ {
		h0W |= uint64(lanes[k].h0) << (8 * k)
	}
	cols[0] = swarCol{h: h0W}
	lim := nMax
	if banded && w < lim {
		lim = w
	}
	v := satsub8(h0W, oeW)
	for j := 1; j <= lim; j++ {
		cols[j].h = v
		v = satsub8(v, geW)
	}
	for j := lim + 1; j <= nMax; j++ {
		cols[j].h = 0
	}

	// Row 0's right edge contributes each lane's initial global score
	// (pure insertion of the whole query).
	var gBest, gT [8]int
	for k := 0; k < nl; k++ {
		if g := int(cols[nk[k]].h>>(8*k)) & 0xff; g > 0 {
			gBest[k] = g
		}
	}

	var capHi uint64
	{
		hi := uint64(0x80)
		for k := 0; k < nl; k++ {
			if lanes[k].bd != nil {
				capHi |= hi
			}
			hi <<= 8
		}
	}

	rows := mMax
	if r := nMax + effW; r < rows {
		rows = r
	}

	var bestW uint64
	var bi, bj [8]int
	col0W := satsub8(h0W, splat8(sc.GapOpen))

	for i := 1; i <= rows; i++ {
		jmin, jmax := 1, nMax
		if banded {
			if lo := i - w; lo > jmin {
				jmin = lo
			}
			if hi := i + w; hi < jmax {
				jmax = hi
			}
			if jmin > nMax {
				break
			}
		}

		col0W = satsub8(col0W, geW) // col0(i) = max(h0 - GapOpen - i*GapExtend, 0)
		var hDiag uint64
		if jmin == 1 {
			hDiag = cols[0].h
			if !banded || i <= w {
				cols[0].h = col0W
			} else {
				cols[0].h = 0 // column 0 is below the band: dead
			}
		} else {
			hDiag = cols[jmin-1].h
		}
		if banded && jmax < nMax {
			// The rightmost in-band column is new this row; its E input is
			// out-of-band and dead.
			cols[jmax].e = 0
		}

		// Lanes whose target is exhausted keep sweeping padded rows;
		// rowHi/rowFull mask them out of captures and liveness.
		var rowHi uint64
		{
			hi := uint64(0x80)
			for k := 0; k < nl; k++ {
				if i <= mk[k] {
					rowHi |= hi
				}
				hi <<= 8
			}
		}
		rowFull := (rowHi >> 7) * 0xff
		twI := tw[i]
		bj0 := -1
		if banded && i > w {
			bj0 = i - w // the band's lower-boundary column this row (== jmin)
		}
		var f, live uint64
		for j := jmin; j <= jmax; j++ {
			col := &cols[j]
			hUp := col.h
			ev := col.e
			qm := col.qm
			// eqm: 0x7f in lanes whose query base matches the target base
			// (the flag bits are masked out of the XOR with the codes).
			x := (qm ^ twI) & swarCode8
			nzb := (x + swarM7) | x
			eqm := ^nzb & swarH8
			eqm -= eqm >> 7
			// nzm: 0x7f in lanes whose diagonal is live (dead cells give no
			// match extension — the kernels' no-local-restart rule).
			u := (hDiag + swarM7) & swarH8
			nzm := u - u>>7
			mv := ((hDiag + maW) & eqm & nzm) | (satsub8(hDiag, miW) &^ eqm)
			hv := max8(max8(mv, ev), f)
			col.h = hv

			colHi := qm & swarH8
			if gt := ((hv | swarH8) - bestW - swarL8) & colHi & rowHi; gt != 0 {
				// Some lane strictly improved its local best (rare; first
				// position in scan order wins, same as the scalar kernels).
				fm := (gt >> 7) * 0xff
				bestW = (hv & fm) | (bestW &^ fm)
				for g := gt; g != 0; g &= g - 1 {
					k := bits.TrailingZeros64(g) >> 3
					bi[k], bj[k] = i, j
				}
			}

			t1 := satsub8(hv, oeW)
			ne := max8(t1, satsub8(ev, geW))
			f = max8(t1, satsub8(f, geW))
			live |= (hv | ne | f) & rowFull

			if j == bj0 {
				// E leaves the band through its lower boundary: record it
				// for lanes that still have a real cell here. The in-band
				// store is skipped entirely — the band's left edge moves
				// right every row, so this column is never read again,
				// which doubles as the scalar kernels' e[j] = 0 kill.
				if cb := colHi & rowHi & capHi; cb != 0 {
					for g := cb; g != 0; g &= g - 1 {
						k := bits.TrailingZeros64(g) >> 3
						lanes[k].bd[j] = int(ne>>(8*k)) & 0xff
					}
				}
			} else {
				col.e = ne
			}

			if eh := (qm << 1) & swarH8 & rowHi; eh != 0 {
				// Right-edge cells (query fully consumed): global scores.
				for g := eh; g != 0; g &= g - 1 {
					k := bits.TrailingZeros64(g) >> 3
					if v := int(hv>>(8*k)) & 0xff; v > gBest[k] {
						gBest[k], gT[k] = v, i
					}
				}
			}
			hDiag = hUp
		}

		// Shared early exit, taken only when every still-active lane
		// satisfies the scalar kernels' exact dead-row break: no in-band
		// liveness and (column 0 out of band, or its next value dead too).
		rowLiveW := live
		if !banded || i <= w {
			rowLiveW |= col0W & rowFull
		}
		if rowLiveW == 0 {
			if banded && i > w {
				break
			}
			if satsub8(col0W, geW)&rowFull == 0 {
				break
			}
		}
	}

	// Scatter results. Rows/Cells are the deterministic full-sweep counts
	// so batch composition can never change a result field.
	for k := 0; k < nl; k++ {
		r := lanes[k].res
		rk := mk[k]
		if lim := nk[k] + effW; lim < rk {
			rk = lim
		}
		var cells int64
		for i := 1; i <= rk; i++ {
			lo, hi := 1, nk[k]
			if banded {
				if l := i - w; l > lo {
					lo = l
				}
				if h := i + w; h < hi {
					hi = h
				}
			}
			if lo > hi {
				break
			}
			cells += int64(hi - lo + 1)
		}
		r.Local = int(bestW>>(8*k)) & 0xff
		r.LocalT, r.LocalQ = bi[k], bj[k]
		r.Global, r.GlobalT = gBest[k], gT[k]
		r.Rows = rk
		r.Cells = cells
	}
}
