package editmachine

// Reach reports a goal-directed corner sweep (CornerReachesWS).
type Reach struct {
	// Reached is true when some region cell scores at least the goal:
	// exactly when SweepCorner's Score >= goal on a non-empty region (an
	// empty one reaches nothing).
	Reached bool
	// Score is, when Reached, a region score at or above the goal: that
	// of the cell the sweep stopped at. It is zero otherwise.
	Score int
	// Cells is the number of region cells computed.
	Cells int64
}

// CornerReachesWS answers the one question the paper-mode edit check
// asks of SweepCornerWS(ws, query, target, w, init, rx) — is the region's
// Score at least goal? — without sweeping the whole region. It stops at
// the first cell scoring goal or more, and it prunes: a step gains at
// most g = max(Match, −Mismatch, −Ins, 0) per query base it consumes and
// nothing on a deletion (Del >= 0), so a cell at column j scoring below
// goal − (n−j)·g can neither reach goal nor feed a cell that does, and is
// treated as unreachable. Each row then shrinks to the window its live
// cells span, and the sweep ends when a row has none.
//
// The verdict is SweepCorner's: every cell on a best path to a cell
// scoring goal clears its column's floor, so pruning never cuts that
// path. A relaxed scoring with Del < 0 gains on deletions and is swept in
// full instead.
func CornerReachesWS(ws *Workspace, query, target []byte, w, init, goal int, rx Relaxed) Reach {
	n, m := len(query), len(target)
	if w < 0 || m <= w {
		return Reach{}
	}
	if init >= goal {
		return Reach{Reached: true, Score: init, Cells: 1}
	}
	if rx.Del < 0 {
		r := SweepCornerWS(ws, query, target, w, init, rx)
		if r.Score < goal {
			return Reach{Cells: r.Cells}
		}
		return Reach{Reached: true, Score: r.Score, Cells: r.Cells}
	}
	// Cells hold their slack u = v − (goal − (n−j)·g), live when u >= 0;
	// the goal is reached when u >= need = (n−j)·g. A diagonal step moves
	// one column, so its slack changes by the substitution score − g, a
	// horizontal one by −Ins − g, a vertical one by −Del. Dead cells are
	// stored as negInf, and nothing is added to negInf more than once, so
	// candidates from dead inputs stay far below zero without a test.
	g := max(rx.Match, -rx.Mismatch, -rx.Ins, 0)
	u0 := init - goal + n*g
	if u0 < 0 {
		return Reach{Cells: 1}
	}
	st := slackSteps{x: -rx.Mismatch - g, ins: rx.Ins + g, del: rx.Del, g: g}
	row, qcol := ws.rowBuf(n), ws.columns(query)
	row[0] = u0
	cells := int64(1)
	lo, hi := 0, 0 // the previous row's live cells lie in row[lo..hi]; the rest of row is negInf
	for i := w + 2; i <= m; i++ {
		jmax := min(i-w-1, n)
		t := target[i-1]
		st.m = rx.Match - g // a query base equal to t; N matches nothing
		if t >= 4 {
			st.m = st.x
		}
		end, u := st.row(row[lo:jmax+1], qcol[lo:jmax+1], t, hi-lo, (n-lo)*g)
		end += lo
		cells += int64(end - lo + 1)
		if u >= 0 {
			return Reach{Reached: true, Score: goal + u, Cells: cells}
		}
		for hi = end; hi >= lo && row[hi] < 0; hi-- {
		}
		if hi < lo {
			break
		}
		for row[lo] < 0 {
			lo++
		}
	}
	return Reach{Cells: cells}
}

// slackSteps are the slack changes of the relaxed moves: a diagonal step
// onto a matching (m) or mismatching (x) base, a horizontal (ins) or
// vertical (del) one, and the floor's rise per column (g).
type slackSteps struct{ m, x, ins, del, g int }

// row advances the window row, holding row i−1's slacks in columns
// lo..jmax, to row i, whose target base is t; qcol holds the query bases
// of the same columns (qcol[k] = query[lo+k−1]). Row i−1's live cells lie
// in row[0..hi], so column lo−1 is dead, and need is (n−lo)·g. It
// returns the last window index computed, and the reached cell's score
// minus the goal (>= 0) if one reached it, else −1. It is its own
// function so that its loop keeps its values in registers.
func (st slackSteps) row(row []int, qcol []byte, t byte, hi, need int) (end, reached int) {
	qcol = qcol[:len(row)]
	diag, left := negInf, negInf // the slacks of (i−1, j−1) and (i, j−1)
	dm := st.m - st.x
	for k := range row {
		up := row[k]
		// The substitution step without a branch: mask is all ones
		// exactly when the bases are equal.
		mask := (int(qcol[k]^t) - 1) >> 63
		u := max(up-st.del, diag+st.x+dm&mask, left-st.ins)
		diag = up
		if u < 0 {
			if k > hi {
				// Past the previous row's window only the left input
				// feeds a cell, and it is dead.
				return k, -1
			}
			u = negInf
		} else if u >= need {
			return k, u - need
		}
		row[k] = u
		left = u
		need -= st.g
	}
	return len(row) - 1, -1
}
