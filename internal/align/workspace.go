package align

import (
	"math"
	"sync"
)

// Workspace owns every piece of scratch memory the extension kernel needs:
// the two DP rows (H and E), the banded kernel's boundary E buffer, and a
// precomputed query profile. One Workspace serves one goroutine; reusing it
// across calls makes the kernel allocation-free in steady state (buffers
// only grow, they are never shrunk or freed).
//
// The rows are int32, not int: halving the element size doubles the number
// of DP cells per cache line, and the kernel is memory-bound on long
// extensions. The entry points below transparently fall back to the int
// reference kernel when a problem's score range could overflow int32 (see
// int32Safe), so callers never observe the narrower arithmetic.
//
// The query profile is the standard striped-SW trick (Farrar/SSW): a 5×N
// table holding Sub(base, query[j]) for each of the 4 base codes plus the
// ambiguous catch-all, built once per call in O(5N). The inner loop then
// replaces the per-cell substitution call (a data-dependent branch) with a
// single table load from the row selected by the current target base.
type Workspace struct {
	h, e   []int32
	prof   []int32
	boundE []int

	// Batch (SWAR) scratch: packed DP rows and lane-transposed sequences
	// for the inter-sequence kernels, the sort keys used to bucket a batch
	// by shape, and one arena serving every job's boundary-E capture.
	pk         packedScratch
	batchKeys  []uint64
	boundArena []int
}

// swarCol is one DP column of the SWAR kernels as an interleaved record:
// the packed H word, the packed E word, and the striped query word qm
// carrying, per lane, the query base code (bits 0-2), the right-edge flag
// (j == lane query length) one bit below the lane top, and the
// column-valid flag in the lane's top bit. The striping puts a column's
// entire inner-loop read set — operands and masks — in 24 contiguous
// bytes, so the per-row sweep is one forward streaming pass instead of
// five parallel array gathers (SSW's query-profile locality argument,
// transposed to inter-sequence lanes). See swar8.go for the bit layout.
type swarCol struct {
	h, e, qm uint64
}

// packedScratch holds the lane-packed state of the SWAR kernels: the
// interleaved column records (one per DP column) and the
// lane-transposed target codes (one word per target row). The native
// kernel's records (native16.go) live beside them; a process only ever
// grows the pair its back end uses.
type packedScratch struct {
	cols []swarCol
	tw   []uint64

	cols16 []col16
	tw16   []vec16
}

// NewWorkspace returns an empty Workspace; buffers are sized lazily on
// first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// prepare sizes the DP rows for a query of length n and rebuilds the query
// profile. e is cleared (the kernel requires an all-dead initial E row); h
// is fully initialized by the kernel itself.
func (ws *Workspace) prepare(query []byte, match, mis int32) {
	n := len(query)
	if cap(ws.h) < n+1 {
		ws.h = make([]int32, n+1)
		ws.e = make([]int32, n+1)
	}
	ws.h = ws.h[:n+1]
	ws.e = ws.e[:n+1]
	clear(ws.e)
	if cap(ws.prof) < 5*n {
		ws.prof = make([]int32, 5*n)
	}
	prof := ws.prof[:5*n]
	// Fill the first row elementwise, then replicate by doubling copies
	// (memmove), which is much cheaper than 5n scalar stores.
	for i := 0; i < n; i++ {
		prof[i] = -mis
	}
	for sz := n; sz < 5*n; sz *= 2 {
		copy(prof[sz:], prof[:sz])
	}
	for j, b := range query {
		if b < 4 {
			prof[int(b)*n+j] = match
		}
	}
}

// preparePacked sizes the packed scratch for a lane group whose longest
// query is nMax and longest target is mMax. Nothing is cleared: each
// kernel's transpose and row-0 setup fully initializes every record it
// will read.
func (ws *Workspace) preparePacked(nMax, mMax int) {
	if cap(ws.pk.cols) < nMax+1 {
		ws.pk.cols = make([]swarCol, nMax+1)
	}
	ws.pk.cols = ws.pk.cols[:nMax+1]
	if cap(ws.pk.tw) < mMax+1 {
		ws.pk.tw = make([]uint64, mMax+1)
	}
	ws.pk.tw = ws.pk.tw[:mMax+1]
}

// boundaryArena returns a zeroed arena of total ints, carved by the batch
// entry points into one boundary-E buffer per job. It aliases workspace
// memory: valid until the next batch run on this workspace.
func (ws *Workspace) boundaryArena(total int) []int {
	if cap(ws.boundArena) < total {
		ws.boundArena = make([]int, total)
	}
	a := ws.boundArena[:total]
	clear(a)
	return a
}

// boundaryBuf returns the zeroed boundary E buffer for a query of length
// n. The returned slice aliases workspace memory: it is valid until the
// next extension run on this workspace.
func (ws *Workspace) boundaryBuf(n int) []int {
	if cap(ws.boundE) < n+1 {
		ws.boundE = make([]int, n+1)
	}
	b := ws.boundE[:n+1]
	clear(b)
	return b
}

// int32SafeLimit bounds the absolute score magnitude the int32 kernel may
// produce; staying a factor of 4 under MaxInt32 keeps every intermediate
// (including the h-oe and e-ge decrements) comfortably in range.
const int32SafeLimit = math.MaxInt32 / 4

// int32Safe reports whether the extension's score range provably fits the
// int32 datapath: the largest positive score is h0 + n*Match, the most
// negative intermediate is bounded by the first-column decay over m rows.
func int32Safe(n, m, h0 int, sc Scoring) bool {
	if int64(h0)+int64(n)*int64(sc.Match) >= int32SafeLimit {
		return false
	}
	return int64(sc.GapOpen)+int64(m+2)*int64(sc.GapExtend) < int32SafeLimit
}

// wsPool recycles workspaces for the drop-in Extend/ExtendBanded wrappers.
// Long-lived goroutines (pipeline workers, FPGA threads) should hold their
// own Workspace instead and call the WS entry points directly.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace takes a workspace from the shared pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool. The caller must not
// retain any slice obtained from it (notably a BandBoundary.E).
func PutWorkspace(ws *Workspace) { wsPool.Put(ws) }

// ExtendWS runs the full-width extension kernel with caller-owned scratch;
// it performs no allocations once ws has warmed to the workload's maximum
// query length.
func ExtendWS(ws *Workspace, query, target []byte, h0 int, sc Scoring) ExtendResult {
	r, _ := extendCoreWS(ws, query, target, h0, sc, -1, nil)
	return r
}

// ExtendBandedWS runs the banded kernel with caller-owned scratch. The
// returned BandBoundary.E aliases workspace memory and is valid only until
// the next extension run on ws; copy it to retain it.
func ExtendBandedWS(ws *Workspace, query, target []byte, h0 int, sc Scoring, w int) (ExtendResult, BandBoundary) {
	return extendCoreWS(ws, query, target, h0, sc, w, ws.boundaryBuf(len(query)))
}

// extendCoreWS is the workspace-backed row-streaming kernel: bit-identical
// to extendCoreRef (the tests assert it), with int32 rows and the query
// profile replacing the per-cell substitution call. Problems whose score
// range could overflow the int32 datapath are delegated to the reference
// kernel. bd, when non-nil, is a pre-zeroed len(query)+1 buffer that
// receives the band's lower-boundary E-scores (the batch path passes
// arena slices here; the WS wrappers pass ws.boundaryBuf).
func extendCoreWS(ws *Workspace, query, target []byte, h0 int, sc Scoring, w int, bd []int) (ExtendResult, BandBoundary) {
	n, m := len(query), len(target)
	res := ExtendResult{}
	boundary := BandBoundary{E: bd}
	captureBoundary := bd != nil
	if h0 <= 0 || n == 0 {
		// No seed score to extend from, or nothing to align (see
		// extendCoreRef).
		return res, boundary
	}
	if !int32Safe(n, m, h0, sc) {
		r, bd := extendCoreRef(query, target, h0, sc, w, captureBoundary)
		if captureBoundary {
			copy(boundary.E, bd.E)
			return r, boundary
		}
		return r, bd
	}
	banded := w >= 0

	ws.prepare(query, int32(sc.Match), int32(sc.Mismatch))
	h, e := ws.h, ws.e
	hh0 := int32(h0)
	gapO, gapE := int32(sc.GapOpen), int32(sc.GapExtend)
	oe := gapO + gapE

	// h[j] = H(i-1, j); e[j] = E(i, j) for the row about to be computed.
	h[0] = hh0
	for j := 1; j <= n; j++ {
		if banded && j > w {
			// Initialization cells above the band are dead for the banded
			// machine; the SeedEx threshold check (score > S1) accounts
			// for every path through the above-band region.
			h[j] = 0
			continue
		}
		v := hh0 - gapO - int32(j)*gapE
		if v < 0 {
			v = 0
		}
		h[j] = v
	}
	// Row 0 right edge also contributes a global score (pure insertion of
	// the whole query).
	var globalBest int32
	globalT := 0
	if h[n] > 0 {
		globalBest = h[n]
	}

	var cells int64
	var localBest int32
	localI, localJ, rows := 0, 0, 0

	for i := 1; i <= m; i++ {
		jmin, jmax := 1, n
		if banded {
			if lo := i - w; lo > jmin {
				jmin = lo
			}
			if hi := i + w; hi < jmax {
				jmax = hi
			}
			if jmin > n {
				break // band has moved past the query; nothing left in-band
			}
		}

		// First column of this row.
		col0 := hh0 - gapO - int32(i)*gapE
		if col0 < 0 {
			col0 = 0
		}

		var hPrev int32 // H(i-1, jmin-1), the diagonal input of the first cell
		if jmin == 1 {
			hPrev = h[0]
			if !banded || i <= w {
				h[0] = col0 // store H(i, 0)
			} else {
				h[0] = 0 // column 0 is below the band: dead
				col0 = 0
			}
		} else {
			hPrev = h[jmin-1]
		}
		if banded && jmax < n {
			// The rightmost in-band column is new this row; its E input
			// comes from out-of-band cells above and is dead.
			e[jmax] = 0
		}

		// Profile row for this row's target base; ambiguous codes share
		// the all-mismatch catch-all row.
		c := target[i-1]
		if c > 4 {
			c = 4
		}
		prof := ws.prof[int(c)*n:]

		var f int32
		rowLive := col0 > 0
		beg, end := jmin, jmax
		// Exact leading dead-region skip: cells whose diagonal, E and
		// (implied) F inputs are all dead stay dead.
		for beg <= jmax && hPrev == 0 && h[beg] == 0 && e[beg] == 0 {
			hPrev = h[beg]
			beg++
		}
		if beg > jmin {
			hPrev = h[beg-1]
		}
		lastLive := beg - 1
		j := beg
		for ; j <= end; j++ {
			hDiag := hPrev
			hPrev = h[j]
			var mv int32
			if hDiag > 0 {
				mv = hDiag + prof[j-1]
			}
			ev := e[j]
			hv := mv
			if ev > hv {
				hv = ev
			}
			if f > hv {
				hv = f
			}
			if hv < 0 {
				hv = 0
			}
			h[j] = hv

			if hv > localBest {
				localBest, localI, localJ = hv, i, j
			}

			t1 := hv - oe
			ne := ev - gapE
			if t1 > ne {
				ne = t1
			}
			if ne < 0 {
				ne = 0
			}
			e[j] = ne
			nf := f - gapE
			if t1 > nf {
				nf = t1
			}
			if nf < 0 {
				nf = 0
			}
			f = nf

			if hv > 0 || ne > 0 || nf > 0 {
				rowLive = true
				lastLive = j
			}
			if banded && i-j == w {
				// E(i+1, j) leaves the band through its lower boundary.
				if captureBoundary {
					boundary.E[j] = int(ne)
				}
				e[j] = 0 // the below-band cell is not computed in-band
			}
			if j-lastLive > 2 && hPrev == 0 && e[j] == 0 {
				// Exact trailing dead-region stop: no H, E or F liveness
				// remains in this row and the cells above are dead, so the
				// rest of the row (and its E outputs) stay dead. Clear any
				// stale state so the next row sees dead inputs.
				for k := j + 1; k <= end; k++ {
					if h[k] == 0 && e[k] == 0 {
						continue
					}
					// A live cell above would resurrect the row; give up
					// trimming and keep computing.
					goto keepGoing
				}
				for k := j + 1; k <= end; k++ {
					h[k] = 0
				}
				j++ // cells accounting below counts processed cells as j-beg
				break
			}
		keepGoing:
			if j == n && hv > globalBest {
				globalBest, globalT = hv, i
			}
		}
		cells += int64(j - beg)
		rows = i
		nextCol0 := hh0 - gapO - int32(i+1)*gapE
		if !rowLive && nextCol0 <= 0 {
			break
		}
		if banded && i-w > 0 && !rowLive {
			// Column 0 is outside the band from row w+1 on, so a fully
			// dead in-band row cannot be revived.
			break
		}
	}
	res.Local, res.LocalT, res.LocalQ = int(localBest), localI, localJ
	res.Global, res.GlobalT = int(globalBest), globalT
	res.Rows, res.Cells = rows, cells
	return res, boundary
}
