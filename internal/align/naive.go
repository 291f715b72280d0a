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
// on the same workspace.
func (ws *TraceWorkspace) NaiveExtend(query, target []byte, h0 int, sc Scoring, w int) (ExtendResult, *Matrices) {
	n, m := len(query), len(target)
	mx := ws.matrices(n, m)
	res := ExtendResult{}
	if h0 <= 0 || n == 0 {
		return res, mx
	}
	banded := w >= 0
	inBand := func(i, j int) bool {
		if !banded {
			return true
		}
		d := i - j
		return d <= w && d >= -w
	}

	mx.H[0][0] = h0
	for j := 1; j <= n; j++ {
		if !inBand(0, j) {
			continue
		}
		v := h0 - sc.GapOpen - j*sc.GapExtend
		if v > 0 {
			mx.H[0][j] = v
		}
	}
	if mx.H[0][n] > 0 {
		res.Global, res.GlobalT = mx.H[0][n], 0
	}
	for i := 1; i <= m; i++ {
		if inBand(i, 0) {
			v := h0 - sc.GapOpen - i*sc.GapExtend
			if v > 0 {
				mx.H[i][0] = v
			}
		}
		for j := 1; j <= n; j++ {
			if !inBand(i, j) {
				continue
			}
			// E channel: vertical gap. E(1,·) = 0 by initialization.
			if i >= 2 && inBand(i-1, j) {
				ev := mx.E[i-1][j]
				if t := mx.H[i-1][j] - sc.GapOpen; t > ev {
					ev = t
				}
				ev -= sc.GapExtend
				if ev > 0 {
					mx.E[i][j] = ev
				}
			}
			// F channel: horizontal gap. F(·,1) = 0 by initialization.
			if j >= 2 && inBand(i, j-1) {
				fv := mx.F[i][j-1]
				if t := mx.H[i][j-1] - sc.GapOpen; t > fv {
					fv = t
				}
				fv -= sc.GapExtend
				if fv > 0 {
					mx.F[i][j] = fv
				}
			}
			var mv int
			if inBand(i-1, j-1) && mx.H[i-1][j-1] > 0 {
				mv = mx.H[i-1][j-1] + sc.Sub(target[i-1], query[j-1])
			}
			hv := mv
			if mx.E[i][j] > hv {
				hv = mx.E[i][j]
			}
			if mx.F[i][j] > hv {
				hv = mx.F[i][j]
			}
			if hv < 0 {
				hv = 0
			}
			mx.H[i][j] = hv
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

// matrices returns zeroed (m+1) x (n+1) H, E and F matrices carved from
// the workspace's backing (from fresh memory for a nil workspace).
func (ws *TraceWorkspace) matrices(n, m int) *Matrices {
	if ws == nil {
		ws = &TraceWorkspace{}
	}
	size := 3 * (m + 1) * (n + 1)
	if cap(ws.cells) < size {
		ws.cells = make([]int, size)
	} else {
		ws.cells = ws.cells[:size]
		clear(ws.cells) // the DP writes only live cells; the rest must read 0
	}
	if cap(ws.rows) < 3*(m+1) {
		ws.rows = make([][]int, 3*(m+1))
	}
	rows := ws.rows[:3*(m+1)]
	for r := range rows {
		rows[r] = ws.cells[r*(n+1) : (r+1)*(n+1) : (r+1)*(n+1)]
	}
	ws.mx = Matrices{Qlen: n, Tlen: m, H: rows[:m+1], E: rows[m+1 : 2*(m+1)], F: rows[2*(m+1):]}
	return &ws.mx
}
