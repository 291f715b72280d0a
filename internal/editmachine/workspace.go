package editmachine

import (
	"sync"

	"seedex/internal/align"
)

// Workspace owns the sweep's single DP row, and CornerReachesWS's
// column-indexed copy of the query, so that repeated sweeps on one
// goroutine are allocation-free. Both only grow; they are never shrunk or
// freed. One Workspace serves one goroutine.
type Workspace struct {
	row  []int
	qcol []byte
}

// NewWorkspace returns an empty Workspace; the row is sized lazily.
func NewWorkspace() *Workspace { return &Workspace{} }

// rowBuf returns the sweep row for a query of length n, reset to negInf.
func (ws *Workspace) rowBuf(n int) []int {
	if cap(ws.row) < n+1 {
		ws.row = make([]int, n+1)
	}
	row := ws.row[:n+1]
	for j := range row {
		row[j] = negInf
	}
	return row
}

// columns returns the query indexed by DP column: qcol[j] = query[j−1],
// and qcol[0] is a pad no column-0 cell reads.
func (ws *Workspace) columns(query []byte) []byte {
	ws.qcol = append(append(ws.qcol[:0], 0), query...)
	return ws.qcol
}

// wsPool backs the drop-in SweepCorner/SweepExact wrappers. Long-lived
// checking goroutines should hold their own Workspace and call the WS
// entry points directly.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// SweepCornerWS is SweepCorner with caller-owned scratch; allocation-free
// once ws has warmed to the workload's maximum query length.
func SweepCornerWS(ws *Workspace, query, target []byte, w, init int, rx Relaxed) RegionResult {
	return sweepWS(ws, query, target, w, rx, func(i int) int {
		if i == w+1 {
			return init
		}
		return negInf
	}, nil)
}

// SweepExactWS is SweepExact with caller-owned scratch.
func SweepExactWS(ws *Workspace, query, target []byte, w, h0 int, boundaryE []int, sc align.Scoring, rx Relaxed) RegionResult {
	col0 := func(i int) int {
		return h0 - sc.GapOpen - i*sc.GapExtend
	}
	return sweepWS(ws, query, target, w, rx, col0, boundaryE)
}
