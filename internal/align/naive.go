package align

// Matrices holds the fully materialized DP state of a naive extension; it
// is the test oracle for the streaming kernels and the input to traceback.
type Matrices struct {
	Qlen, Tlen int
	H, E, F    [][]int // (Tlen+1) x (Qlen+1); row 0 / col 0 are the init borders
}

// NaiveExtend computes the extension with a straightforward full-matrix
// DP using exactly the semantics documented in the package comment. It is
// intentionally simple (no early termination, no banding tricks) so the
// optimized kernels can be validated against it.
func NaiveExtend(query, target []byte, h0 int, sc Scoring) (ExtendResult, *Matrices) {
	return (*TraceWorkspace)(nil).NaiveExtend(query, target, h0, sc, -1)
}

// NaiveExtendBanded is the full-matrix oracle for the banded kernel:
// cells with |i-j| > w are forced dead.
func NaiveExtendBanded(query, target []byte, h0 int, sc Scoring, w int) (ExtendResult, *Matrices) {
	return (*TraceWorkspace)(nil).NaiveExtend(query, target, h0, sc, w)
}

// TraceWorkspace is a grow-only backing for the matrices of one naive
// extension at a time: host traceback fills it once or twice per read, so
// a long-lived worker reuses one instead of allocating three matrices per
// call. A nil *TraceWorkspace is valid and allocates fresh matrices.
type TraceWorkspace struct {
	cells []int   // H, E, F back to back, row-major
	rows  [][]int // the row headers of all three
	mx    Matrices
}

// NaiveExtend is the naive DP (banded to |i-j| <= w when w >= 0) filled
// into the workspace. The returned matrices are valid until the next call
// on the same workspace. A banded fill costs what its band costs: it
// visits, and on reused memory zeroes, only the band and the one column
// on either side of it that the recurrence and Traceback can read; cells
// further out are unspecified unless the workspace is nil.
func (ws *TraceWorkspace) NaiveExtend(query, target []byte, h0 int, sc Scoring, w int) (ExtendResult, *Matrices) {
	n, m := len(query), len(target)
	if w < 0 || w > max(n, m) {
		w = max(n, m) // every cell is in band
	}
	mx, dirty := ws.matrices(n, m)
	if dirty {
		mx.clearBand(w)
	}
	res := ExtendResult{}
	if h0 <= 0 || n == 0 {
		return res, mx
	}

	mx.H[0][0] = h0
	for j := 1; j <= min(n, w); j++ {
		v := h0 - sc.GapOpen - j*sc.GapExtend
		if v > 0 {
			mx.H[0][j] = v
		}
	}
	if mx.H[0][n] > 0 {
		res.Global, res.GlobalT = mx.H[0][n], 0
	}
	for i := 1; i <= m; i++ {
		H, E, F := mx.H[i], mx.E[i], mx.F[i]
		Hup, Eup := mx.H[i-1], mx.E[i-1]
		if i <= w {
			v := h0 - sc.GapOpen - i*sc.GapExtend
			if v > 0 {
				H[0] = v
			}
		}
		for j := max(1, i-w); j <= min(n, i+w); j++ {
			// E channel: vertical gap. E(1,·) = 0 by initialization.
			if i >= 2 {
				ev := Eup[j]
				if t := Hup[j] - sc.GapOpen; t > ev {
					ev = t
				}
				ev -= sc.GapExtend
				if ev > 0 {
					E[j] = ev
				}
			}
			// F channel: horizontal gap. F(·,1) = 0 by initialization.
			if j >= 2 {
				fv := F[j-1]
				if t := H[j-1] - sc.GapOpen; t > fv {
					fv = t
				}
				fv -= sc.GapExtend
				if fv > 0 {
					F[j] = fv
				}
			}
			var mv int
			if Hup[j-1] > 0 {
				mv = Hup[j-1] + sc.Sub(target[i-1], query[j-1])
			}
			hv := max(mv, E[j], F[j], 0)
			H[j] = hv
			res.Cells++
			if hv > res.Local {
				res.Local, res.LocalT, res.LocalQ = hv, i, j
			}
			if j == n && hv > res.Global {
				res.Global, res.GlobalT = hv, i
			}
		}
		res.Rows = i
	}
	return res, mx
}

// clearBand zeroes, in every row i, the band's columns [i-w, i+w] and the
// one column on either side of them.
func (mx *Matrices) clearBand(w int) {
	for i := 0; i <= mx.Tlen; i++ {
		if lo, hi := max(i-w-1, 0), min(i+w+1, mx.Qlen); lo <= hi {
			clear(mx.H[i][lo : hi+1])
			clear(mx.E[i][lo : hi+1])
			clear(mx.F[i][lo : hi+1])
		}
	}
}

// matrices returns (m+1) x (n+1) H, E and F matrices carved from the
// workspace's backing, and whether that memory is reused (dirty) rather
// than freshly zeroed.
func (ws *TraceWorkspace) matrices(n, m int) (*Matrices, bool) {
	if ws == nil {
		ws = &TraceWorkspace{}
	}
	size := 3 * (m + 1) * (n + 1)
	dirty := cap(ws.cells) >= size
	if dirty {
		ws.cells = ws.cells[:size]
	} else {
		ws.cells = make([]int, size)
	}
	if cap(ws.rows) < 3*(m+1) {
		ws.rows = make([][]int, 3*(m+1))
	}
	rows := ws.rows[:3*(m+1)]
	for r := range rows {
		rows[r] = ws.cells[r*(n+1) : (r+1)*(n+1) : (r+1)*(n+1)]
	}
	ws.mx = Matrices{Qlen: n, Tlen: m, H: rows[:m+1], E: rows[m+1 : 2*(m+1)], F: rows[2*(m+1):]}
	return &ws.mx, dirty
}
