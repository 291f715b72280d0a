package align

// Native 16-lane banded extension kernel: sixteen independent extension
// problems in the sixteen int16 lanes of one 256-bit vector, swept in
// lockstep exactly like the SWAR kernel (see swar16.go for the shared
// commentary) but with the per-cell arithmetic done by native saturating
// lane instructions instead of borrow-free bit tricks — SSW's form of the
// inner loop, on inter-sequence lanes. It sits at the top of the tier
// ladder wherever the host has the instructions (native16_amd64.go probes
// CPUID once at start-up); everywhere else the pure-Go SWAR tier runs
// unchanged, and both produce the same score fields and boundary E bit
// for bit.
//
// What mirrors extendSWAR16: the transposition sentinels (query pad 5,
// target pad 6, so padding never matches), the row-0 and column-0 set-up,
// the band schedule, the shared early exit, the full-sweep Rows/Cells.
// What differs:
//
//   - A column record is {h, e, q vec16}: 96 bytes, one forward streaming
//     pass per row. q holds bare base codes; lane validity is not flag
//     bits in q but per-lane length vectors the sweep compares the row
//     index and a per-column countdown against, so the per-row lane loop
//     that built rowHi is gone. Unused lanes carry the longest admitted
//     lengths over all-dead cells, which never count wherever they are.
//   - Only the inner column loop is assembly (sweepRow); this file is its
//     driver. A row's leading cells that are real for every lane and left
//     of every lane's right edge (the driver knows how many from the
//     group's shortest query and target) run the bare recurrence plus the
//     local-best compare; the rest mask padding and track the right edge.
//     Maxima stay in vector registers; their positions are touched only
//     when some lane strictly improves, about once a row.
//   - The band's lower-boundary E is simply stored in its column like any
//     other: that column leaves the band on the next row and is never
//     read or written again, so after the sweep cols[j].e still holds
//     E(j+w+1, j) for every boundary row that ran, and the capture is one
//     scatter per lane at the end.

// vec16 is one value per lane of the native kernel.
type vec16 [16]uint16

// col16 is one DP column of the native kernel: the H and E values of all
// sixteen problems at that column and their query base codes (pad 5 past
// a lane's query end, in ambiguous positions and in unused lanes).
type col16 struct {
	h, e, q vec16
}

// sweepState is what sweepRow needs beside the column records: the lane
// group's constants, the results carried from row to row, and the row's
// own coordinates. Offsets are taken from go_asm.h.
type sweepState struct {
	// Group constants: broadcast scoring magnitudes (mm is Match+Mismatch,
	// oe GapOpen+GapExtend) and each lane's query and target length
	// (native16MaxDim in unused lanes, whose cells are all dead and so
	// never count wherever they are).
	mm, mi, oe, ge vec16
	nV, mV         vec16
	// Carried across rows: local maximum with its first cell in row-major
	// order, right-edge (j == n) maximum with its first row.
	best, bi, bj vec16
	gBest, gT    vec16
	// Row input: the row index i, the column left of the first cell, and
	// how many of the row's leading cells are plain — real cells of every
	// lane, left of every lane's right edge, which need no masks. When col
	// is 0 the sweep also stores H(i, 0) for the next row, c0 below the
	// H(i-1, 0) it found there.
	row, col, plain uint16
	c0              vec16
	// Row output: two bits per lane, set where the lane still has target
	// at this row and some cell of the row is live.
	live uint32
}

// native16MaxDim bounds a native lane's query and target length: row
// indices and column countdowns ride in int16 lanes, compared signed.
const native16MaxDim = swarCap16 - 1

func splatVec16(v int) (out vec16) {
	for k := range out {
		out[k] = uint16(v)
	}
	return out
}

var padCol16 = col16{q: splatVec16(5)}

// prepareNative16 sizes the native kernel's column and target records for
// a lane group of nMax columns and rows rows and resets them to padding:
// dead H and E, query pad 5, target pad 6.
func (ws *Workspace) prepareNative16(nMax, rows int) ([]col16, []vec16) {
	if cap(ws.pk.cols16) < nMax+1 {
		ws.pk.cols16 = make([]col16, nMax+1)
	}
	cols := ws.pk.cols16[:nMax+1]
	for j := range cols {
		cols[j] = padCol16
	}
	if cap(ws.pk.tw16) < rows+1 {
		ws.pk.tw16 = make([]vec16, rows+1)
	}
	tw := ws.pk.tw16[:rows+1]
	pad := splatVec16(6)
	for i := range tw {
		tw[i] = pad
	}
	return cols, tw
}

// bandExtent returns the rows and cells of the full in-band sweep of an
// n×m problem under band w (w < 0: full width) — the deterministic
// Rows/Cells every packed kernel reports, in closed form.
func bandExtent(n, m, w int) (rows int, cells int64) {
	if w < 0 {
		return m, int64(n) * int64(m)
	}
	rows = min(m, n+w)
	// Row i spans columns max(1, i-w) .. min(n, i+w); sum both ends.
	r, nn, ww := int64(rows), int64(n), int64(w)
	p := min(max(nn-ww, 0), r) // rows whose right end is i+w
	q := min(ww+1, r)          // rows whose left end is 1
	hi := p*(p+1)/2 + p*ww + (r-p)*nn
	lo := q + (r*(r+1)-q*(q+1))/2 - (r-q)*ww
	return rows, hi - lo + r
}

// extendNative16 sweeps up to 16 lanes in lockstep. Preconditions
// (guaranteed by the tiering in swar.go): 1 <= len(lanes) <= 16, every
// lane has len(q) >= 1 and h0 >= 1, a score ceiling h0 + n*Match and
// penalties within swarCap16, and both lengths within native16MaxDim.
// w < 0 selects full width. Results and boundaries as in extendSWAR16.
func extendNative16(ws *Workspace, lanes []swarLane, sc Scoring, w int) {
	st := sweepState{
		mm: splatVec16(sc.Match + sc.Mismatch),
		mi: splatVec16(sc.Mismatch),
		oe: splatVec16(sc.GapOpen + sc.GapExtend),
		ge: splatVec16(sc.GapExtend),
		nV: splatVec16(native16MaxDim),
		mV: splatVec16(native16MaxDim),
	}
	nMax, mMax := 0, 0
	nMin, mMin := native16MaxDim, native16MaxDim
	for k := range lanes {
		n, m := len(lanes[k].q), len(lanes[k].t)
		st.nV[k], st.mV[k] = uint16(n), uint16(m)
		nMax, mMax = max(nMax, n), max(mMax, m)
		nMin, mMin = min(nMin, n), min(mMin, m)
	}
	banded := w >= 0
	rows := mMax
	if banded {
		rows = min(rows, nMax+w)
	}

	// Lane-transpose the sequences over the padding; of the targets only
	// the rows the band can reach.
	cols, tw := ws.prepareNative16(nMax, rows)
	for k := range lanes {
		for j, b := range lanes[k].q {
			if b < 4 {
				cols[j+1].q[k] = uint16(b)
			}
		}
		t := lanes[k].t
		for i, b := range t[:min(len(t), rows)] {
			if b < 4 {
				tw[i+1][k] = uint16(b)
			}
		}
	}

	// Row 0: H(0, j) = max(h0 - GapOpen - j*GapExtend, 0), dead above the
	// band; its right edge is each lane's initial global score. Column 0
	// decays the same way down the rows (the sweep steps it, see below);
	// c0Rows is the last row at which some lane that still has target holds
	// a live column 0 — the part of the shared early exit that is not in
	// the sweep's own liveness word.
	lim := nMax
	if banded {
		lim = min(lim, w)
	}
	oe, ge, gapO := sc.GapOpen+sc.GapExtend, sc.GapExtend, sc.GapOpen
	c0Rows := 0
	for k := range lanes {
		h0, n, m := lanes[k].h0, len(lanes[k].q), len(lanes[k].t)
		cols[0].h[k] = uint16(h0)
		for j, v := 1, h0-oe; j <= lim && v > 0; j, v = j+1, v-ge {
			cols[j].h[k] = uint16(v)
		}
		st.gBest[k] = cols[n].h[k]
		if d := h0 - gapO; d > 0 {
			live := m
			if ge > 0 {
				live = min(m, (d-1)/ge)
			}
			c0Rows = max(c0Rows, live)
		}
	}

	swept := 0
	for i := 1; i <= rows; i++ {
		jmin, jmax := 1, nMax
		if banded {
			jmin, jmax = max(jmin, i-w), min(jmax, i+w)
			if jmax < nMax {
				// The rightmost in-band column is new this row; its E input is
				// out-of-band and dead.
				cols[jmax].e = vec16{}
			}
		}
		if jmin == 1 {
			// H(i, 0) = max(h0 - GapOpen - i*GapExtend, 0) is one step below
			// H(i-1, 0), and dead once column 0 is below the band.
			switch {
			case banded && i > w:
				st.c0 = splatVec16(0xffff)
			case i == 1:
				st.c0 = st.oe
			case i == 2:
				st.c0 = st.ge
			}
		}
		st.row, st.col, st.plain = uint16(i), uint16(jmin-1), 0
		if i <= mMin {
			st.plain = uint16(max(min(nMin-1, jmax)-jmin+1, 0))
		}
		sweepRow(&cols[jmin], jmax-jmin+1, &tw[i], &st)
		swept = i
		// Shared early exit, the scalar kernels' exact dead-row break for
		// every lane at once: no in-band liveness and column 0 out of band
		// or dead for good.
		if st.live == 0 && (i > c0Rows || (banded && i > w)) {
			break
		}
	}

	// Scatter results; Rows/Cells are the deterministic full-sweep counts
	// so batch composition can never change a result field.
	for k := range lanes {
		l := &lanes[k]
		n, m := len(l.q), len(l.t)
		rk, cells := bandExtent(n, m, w)
		*l.res = ExtendResult{
			Local: int(st.best[k]), LocalT: int(st.bi[k]), LocalQ: int(st.bj[k]),
			Global: int(st.gBest[k]), GlobalT: int(st.gT[k]),
			Rows: rk, Cells: cells,
		}
		if l.bd == nil || !banded {
			continue
		}
		// Boundary column j left the band at row j+w holding E(j+w+1, j);
		// it counts where the lane has a real cell there and the row ran.
		for j := min(n, m-w, swept-w); j >= 1; j-- {
			l.bd[j] = int(cols[j].e[k])
		}
	}
}
