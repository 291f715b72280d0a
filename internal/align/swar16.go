package align

import "math/bits"

// 4-lane SWAR banded extension kernel: the 16-bit mirror of swar8.go for
// problems whose score ceiling exceeds an int8 lane but fits 15 bits
// (h0 + n*Match <= swarCap16). Same interleaved column records, same
// striped qm packing (code in bits 0-2, edge flag one bit below the lane
// top, valid flag in the lane top bit), lane stride 16 instead of 8. See
// swar8.go for the full commentary; only the constants differ here.

const (
	swarL16    uint64 = 0x0001000100010001 // 1 in every 16-bit lane
	swarH16    uint64 = swarL16 << 15      // lane high bits
	swarM15    uint64 = ^swarH16           // 15-bit payload mask per lane
	swarCode16 uint64 = swarL16 * 7        // 3-bit base-code field per lane

	swarColHi16  uint64 = 0x8000 // qm column-valid flag (per lane)
	swarEdgeHi16 uint64 = 0x4000 // qm right-edge flag (per lane)
)

// swarCap16 is the largest value a 16-bit lane may hold.
const swarCap16 = 32767

func splat16(v int) uint64 { return uint64(v) * swarL16 }

// satsub16 computes per-lane max(a-b, 0); lanes of a and b <= swarCap16.
func satsub16(a, b uint64) uint64 {
	t := (a | swarH16) - b
	u := t & swarH16
	return t & (u - u>>15)
}

// max16 computes the per-lane maximum as b + max(a-b, 0).
func max16(a, b uint64) uint64 { return b + satsub16(a, b) }

// swarQM16 builds one lane's striped query halfword for column j.
func swarQM16(q []byte, n, j int) uint64 {
	if j > n {
		return 5
	}
	c := uint64(5)
	if b := q[j-1]; b < 4 {
		c = uint64(b)
	}
	c |= swarColHi16
	if j == n {
		c |= swarEdgeHi16
	}
	return c
}

// extendSWAR16 sweeps up to 4 lanes in lockstep; preconditions as in
// extendSWAR8 with the swarCap16 tier test.
func extendSWAR16(ws *Workspace, lanes []swarLane, sc Scoring, w int) {
	nl := len(lanes)
	var nk, mk [4]int
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
		effW = nMax + mMax + 1
	}

	ws.preparePacked(nMax, mMax)
	cols, tw := ws.pk.cols, ws.pk.tw

	for j := 1; j <= nMax; j++ {
		var qv uint64
		for k := 0; k < nl; k++ {
			qv |= swarQM16(lanes[k].q, nk[k], j) << (16 * k)
		}
		cols[j] = swarCol{qm: qv}
	}
	for i := 1; i <= mMax; i++ {
		var tv uint64
		for k := 0; k < nl; k++ {
			c := uint64(6)
			if i <= mk[k] {
				if b := lanes[k].t[i-1]; b < 4 {
					c = uint64(b)
				}
			}
			tv |= c << (16 * k)
		}
		tw[i] = tv
	}

	maW := splat16(sc.Match)
	miW := splat16(sc.Mismatch)
	geW := splat16(sc.GapExtend)
	oeW := splat16(sc.GapOpen + sc.GapExtend)

	var h0W uint64
	for k := 0; k < nl; k++ {
		h0W |= uint64(lanes[k].h0) << (16 * k)
	}
	cols[0] = swarCol{h: h0W}
	lim := nMax
	if banded && w < lim {
		lim = w
	}
	v := satsub16(h0W, oeW)
	for j := 1; j <= lim; j++ {
		cols[j].h = v
		v = satsub16(v, geW)
	}
	for j := lim + 1; j <= nMax; j++ {
		cols[j].h = 0
	}

	var gBest, gT [4]int
	for k := 0; k < nl; k++ {
		if g := int(cols[nk[k]].h>>(16*k)) & 0xffff; g > 0 {
			gBest[k] = g
		}
	}

	var capHi uint64
	{
		hi := uint64(0x8000)
		for k := 0; k < nl; k++ {
			if lanes[k].bd != nil {
				capHi |= hi
			}
			hi <<= 16
		}
	}

	rows := mMax
	if r := nMax + effW; r < rows {
		rows = r
	}

	var bestW uint64
	var bi, bj [4]int
	col0W := satsub16(h0W, splat16(sc.GapOpen))

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

		col0W = satsub16(col0W, geW)
		var hDiag uint64
		if jmin == 1 {
			hDiag = cols[0].h
			if !banded || i <= w {
				cols[0].h = col0W
			} else {
				cols[0].h = 0
			}
		} else {
			hDiag = cols[jmin-1].h
		}
		if banded && jmax < nMax {
			cols[jmax].e = 0
		}

		var rowHi uint64
		{
			hi := uint64(0x8000)
			for k := 0; k < nl; k++ {
				if i <= mk[k] {
					rowHi |= hi
				}
				hi <<= 16
			}
		}
		rowFull := (rowHi >> 15) * 0xffff
		twI := tw[i]
		bj0 := -1
		if banded && i > w {
			bj0 = i - w
		}
		var f, live uint64
		for j := jmin; j <= jmax; j++ {
			col := &cols[j]
			hUp := col.h
			ev := col.e
			qm := col.qm
			x := (qm ^ twI) & swarCode16
			nzb := (x + swarM15) | x
			eqm := ^nzb & swarH16
			eqm -= eqm >> 15
			u := (hDiag + swarM15) & swarH16
			nzm := u - u>>15
			mv := ((hDiag + maW) & eqm & nzm) | (satsub16(hDiag, miW) &^ eqm)
			hv := max16(max16(mv, ev), f)
			col.h = hv

			colHi := qm & swarH16
			if gt := ((hv | swarH16) - bestW - swarL16) & colHi & rowHi; gt != 0 {
				fm := (gt >> 15) * 0xffff
				bestW = (hv & fm) | (bestW &^ fm)
				for g := gt; g != 0; g &= g - 1 {
					k := bits.TrailingZeros64(g) >> 4
					bi[k], bj[k] = i, j
				}
			}

			t1 := satsub16(hv, oeW)
			ne := max16(t1, satsub16(ev, geW))
			f = max16(t1, satsub16(f, geW))
			live |= (hv | ne | f) & rowFull

			if j == bj0 {
				if cb := colHi & rowHi & capHi; cb != 0 {
					for g := cb; g != 0; g &= g - 1 {
						k := bits.TrailingZeros64(g) >> 4
						lanes[k].bd[j] = int(ne>>(16*k)) & 0xffff
					}
				}
			} else {
				col.e = ne
			}

			if eh := (qm << 1) & swarH16 & rowHi; eh != 0 {
				for g := eh; g != 0; g &= g - 1 {
					k := bits.TrailingZeros64(g) >> 4
					if v := int(hv>>(16*k)) & 0xffff; v > gBest[k] {
						gBest[k], gT[k] = v, i
					}
				}
			}
			hDiag = hUp
		}

		rowLiveW := live
		if !banded || i <= w {
			rowLiveW |= col0W & rowFull
		}
		if rowLiveW == 0 {
			if banded && i > w {
				break
			}
			if satsub16(col0W, geW)&rowFull == 0 {
				break
			}
		}
	}

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
		r.Local = int(bestW>>(16*k)) & 0xffff
		r.LocalT, r.LocalQ = bi[k], bj[k]
		r.Global, r.GlobalT = gBest[k], gT[k]
		r.Rows = rk
		r.Cells = cells
	}
}
