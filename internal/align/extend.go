package align

// ExtendResult reports the outcome of one seed extension.
type ExtendResult struct {
	// Local is the best score over all computed cells (the
	// Smith-Waterman-style local maximum of the extension). Zero means no
	// positive-scoring extension exists.
	Local int
	// LocalT and LocalQ are the number of target and query bases consumed
	// at the first cell (in row-major scan order) achieving Local.
	LocalT, LocalQ int
	// Global is the best score among right-edge cells (query fully
	// consumed, j = len(query)); zero if no such cell scores positively.
	// BWA-MEM uses it to decide between soft-clipping and end-to-end
	// (semi-global) alignment.
	Global int
	// GlobalT is the number of target bases consumed at the first
	// right-edge cell achieving Global.
	GlobalT int
	// Rows is the number of target rows actually processed before early
	// termination (Rows == len(target) when the whole matrix was swept).
	Rows int
	// Cells is the number of DP cells evaluated; the software-kernel cost
	// metric behind the paper's Figure 3.
	Cells int64
}

// BandBoundary captures the gap scores that leak out of the band's lower
// boundary, consumed by the SeedEx E-score check (paper §III-C).
type BandBoundary struct {
	// E[j] is the E-score entering the below-band cell (j+w+1, j) from the
	// in-band cell (j+w, j), for 1 <= j <= len(query); zero where the
	// boundary does not exist or nothing leaks.
	E []int
}

// Extender computes seed extensions. Implementations include the software
// kernels in this package, the cycle-level systolic simulator, and the
// speculative SeedEx extender in internal/core.
type Extender interface {
	// Extend aligns query against target anchored with initial score h0.
	Extend(query, target []byte, h0 int) ExtendResult
}

// Job is one independent extension problem of a batch: align Q against T
// starting from seed score H0. Jobs in a batch share one scoring scheme
// and band; everything else (lengths, h0) may differ per job.
type Job struct {
	Q, T []byte
	H0   int
}

// BatchExtender is an Extender that can run many independent extensions
// as one batch — the software analogue of filling the accelerator's
// systolic cores from a DMA batch. Implementations pack jobs into SIMD
// lanes (see the SWAR kernels in this package) or dispatch them to
// hardware; semantically ExtendJobs is identical to calling Extend once
// per job, and the results are bit-for-bit those of the scalar kernels.
type BatchExtender interface {
	Extender
	// ExtendJobs extends every job and returns the results in job order,
	// reusing dst's backing array when it is large enough.
	ExtendJobs(jobs []Job, dst []ExtendResult) []ExtendResult
}

// ExtendJobs runs a batch through ext's batch path when it has one and
// job by job otherwise (same results either way), reusing dst's backing
// array when it is large enough.
func ExtendJobs(ext Extender, jobs []Job, dst []ExtendResult) []ExtendResult {
	if be, ok := ext.(BatchExtender); ok {
		return be.ExtendJobs(jobs, dst)
	}
	if cap(dst) < len(jobs) {
		dst = make([]ExtendResult, len(jobs))
	}
	dst = dst[:len(jobs)]
	for i := range jobs {
		dst[i] = ext.Extend(jobs[i].Q, jobs[i].T, jobs[i].H0)
	}
	return dst
}

// SessionExtender is an Extender that can mint per-goroutine sessions: a
// Session shares the parent's configuration and aggregate statistics but
// owns its own scratch memory, so long-lived workers (pipeline goroutines,
// the server's extension workers) extend allocation-free without sharing
// mutable state. Sessions must not be used concurrently; the parent
// Extender remains safe for shared use.
type SessionExtender interface {
	Extender
	Session() Extender
}

// Extend runs the full-width (unbanded) extension kernel.
// It is the host "full-band rerun" ground truth of the SeedEx workflow.
// It draws scratch from the shared workspace pool; hot callers should hold
// a Workspace and use ExtendWS instead.
func Extend(query, target []byte, h0 int, sc Scoring) ExtendResult {
	ws := GetWorkspace()
	r, _ := extendCoreWS(ws, query, target, h0, sc, -1, nil)
	PutWorkspace(ws)
	return r
}

// ExtendBanded runs the kernel restricted to the band |i-j| <= w and
// additionally captures the E-scores crossing the band's lower boundary
// (needed by the SeedEx optimality checks). Out-of-band neighbours are
// treated as dead cells. The returned boundary is freshly allocated (it
// must outlive the pooled workspace); hot callers should hold a Workspace
// and use ExtendBandedWS, whose boundary aliases workspace memory.
func ExtendBanded(query, target []byte, h0 int, sc Scoring, w int) (ExtendResult, BandBoundary) {
	ws := GetWorkspace()
	r, bd := extendCoreWS(ws, query, target, h0, sc, w, ws.boundaryBuf(len(query)))
	out := BandBoundary{E: append([]int(nil), bd.E...)}
	PutWorkspace(ws)
	return r, out
}

// ExtendRef runs the original int-arithmetic full-width kernel. It is kept
// as the independent reference implementation: the equivalence tests pin
// the workspace kernel against it bit-for-bit, and the benchmarks use it
// as the perf baseline ("seed kernel").
func ExtendRef(query, target []byte, h0 int, sc Scoring) ExtendResult {
	r, _ := extendCoreRef(query, target, h0, sc, -1, false)
	return r
}

// ExtendBandedRef is the reference counterpart of ExtendBanded.
func ExtendBandedRef(query, target []byte, h0 int, sc Scoring, w int) (ExtendResult, BandBoundary) {
	return extendCoreRef(query, target, h0, sc, w, true)
}

// extendCoreRef is the allocating row-streaming reference kernel. w < 0
// selects the full width. When captureBoundary is set (banded mode), the
// outgoing lower boundary E-scores are recorded. The workspace kernel
// (extendCoreWS) mirrors this code and must stay bit-identical to it; it
// also delegates here when a problem's score range could overflow int32.
func extendCoreRef(query, target []byte, h0 int, sc Scoring, w int, captureBoundary bool) (ExtendResult, BandBoundary) {
	n, m := len(query), len(target)
	res := ExtendResult{}
	var boundary BandBoundary
	if captureBoundary {
		boundary.E = make([]int, n+1)
	}
	if h0 <= 0 || n == 0 {
		// No seed score to extend from, or nothing to align: the global
		// score at j==0 is h0 itself only in the degenerate n==0 case,
		// which callers never exercise; report an empty extension.
		return res, boundary
	}
	banded := w >= 0

	// h[j] = H(i-1, j); e[j] = E(i, j) for the row about to be computed.
	h := make([]int, n+1)
	e := make([]int, n+1)
	h[0] = h0
	for j := 1; j <= n; j++ {
		if banded && j > w {
			// Initialization cells above the band are dead for the banded
			// machine; the SeedEx threshold check (score > S1) accounts
			// for every path through the above-band region.
			h[j] = 0
			continue
		}
		v := h0 - sc.GapOpen - j*sc.GapExtend
		if v < 0 {
			v = 0
		}
		h[j] = v
	}
	// Row 0 right edge also contributes a global score (pure insertion of
	// the whole query).
	if h[n] > 0 {
		res.Global = h[n]
		res.GlobalT = 0
	}
	res.Local = 0 // scores below or at zero are dead; report 0.

	oe := sc.GapOpen + sc.GapExtend
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
		col0 := h0 - sc.GapOpen - i*sc.GapExtend
		if col0 < 0 {
			col0 = 0
		}

		var hPrev int // H(i-1, jmin-1), the diagonal input of the first cell
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

		f := 0
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
		for j := beg; j <= end; j++ {
			hDiag := hPrev
			hPrev = h[j]
			var mv int
			if hDiag > 0 {
				mv = hDiag + sc.Sub(target[i-1], query[j-1])
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
			res.Cells++

			if hv > res.Local {
				res.Local, res.LocalT, res.LocalQ = hv, i, j
			}

			t1 := hv - oe
			ne := ev - sc.GapExtend
			if t1 > ne {
				ne = t1
			}
			if ne < 0 {
				ne = 0
			}
			e[j] = ne
			nf := f - sc.GapExtend
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
					boundary.E[j] = ne
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
				break
			}
		keepGoing:
			if j == n && hv > res.Global {
				res.Global, res.GlobalT = hv, i
			}
		}
		res.Rows = i
		nextCol0 := h0 - sc.GapOpen - (i+1)*sc.GapExtend
		if !rowLive && nextCol0 <= 0 {
			break
		}
		if banded && i-w > 0 && !rowLive {
			// Column 0 is outside the band from row w+1 on, so a fully
			// dead in-band row cannot be revived.
			break
		}
	}
	return res, boundary
}
