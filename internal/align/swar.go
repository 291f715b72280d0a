package align

import "slices"

// Inter-sequence batch extension: tiering and lane-packing orchestration
// for the packed kernels (native16.go, swar16.go).
//
// A batch is bucketed by shape (sort by tier, then query length, then
// target length, all descending within the tier) so that the problems
// sharing a lane group have similar DP extents and the lockstep sweep
// wastes little work on padding. The tier ladder picks the widest lane
// that provably cannot overflow, per job:
//
//	16 × int16 native lanes, where the host has them (native16Live): score
//	           ceiling h0 + n*Match <= 32767 (and penalties <= 32767),
//	           both lengths <= native16MaxDim. Everything below is the
//	           portable path, reached only by what this tier cannot admit.
//	4 × int16  score ceiling <= 32767 (and penalties <= 32767)
//	scalar     the int32 workspace kernel (which itself delegates to the
//	           int reference kernel when int32 could overflow)
//
// Lane-level divergence demotes individual problems of a SWAR group back
// to the scalar path: a job whose DP area is a small fraction of its group
// leader's would spend most of the lockstep sweep in padding, so it runs
// scalar instead. The lane it empties is not refilled, which is why the
// native tier carries every job of its group instead: sixteen native lanes
// sweep the envelope at the same cost however many are filled, so a
// demotion there only moves work from free padding to the scalar kernel.
// Degenerate jobs (empty query, non-positive h0) never enter a lane group.

// swarLane couples one lane's problem with its result destination.
// res is fully overwritten; bd, when non-nil, must be a pre-zeroed
// boundary buffer of len(q)+1 entries.
type swarLane struct {
	q, t []byte
	h0   int
	bd   []int
	res  *ExtendResult
}

// Batch tier ladder, in sort-key order (widest first).
const (
	tierNative = iota
	tierSWAR16
	tierScalar

	numTiers
)

// tiers is the ladder's one table: each tier's name (telemetry, metrics
// labels, trace exports) and the lane count of its packed kernel (the
// scalar tier never forms groups).
var tiers = [numTiers]struct {
	name  string
	lanes int
}{
	tierNative: {"native16", 16},
	tierSWAR16: {"swar16", 4},
	tierScalar: {"scalar", 1},
}

// native16Live admits jobs to the native tier. It is the start-up CPUID
// verdict; tests clear it to drive the portable ladder on any host.
var native16Live = native16ISA != "none"

// NativeISA names the instruction set of the native packed tier on this
// host ("avx2"), or "none" where the portable SWAR ladder runs alone.
func NativeISA() string { return native16ISA }

// scoringFits reports whether every penalty magnitude fits a lane of the
// given capacity. Negative magnitudes (no Scoring constructor produces
// them, but fuzzing does) are routed to the scalar path, which inherits
// the reference kernel's semantics for them.
func scoringFits(sc Scoring, cap int) bool {
	if sc.Match < 0 || sc.Mismatch < 0 || sc.GapOpen < 0 || sc.GapExtend < 0 {
		return false
	}
	return sc.Match <= cap && sc.Mismatch <= cap && sc.GapOpen+sc.GapExtend <= cap
}

// swarScoringTier returns the widest portable tier the scoring scheme as
// a whole permits; individual jobs can only narrow it. The native tier has
// the int16 ceiling, so it is open exactly when this is not tierScalar.
func swarScoringTier(sc Scoring) int {
	if scoringFits(sc, swarCap16) {
		return tierSWAR16
	}
	return tierScalar
}

// jobTier picks a job's lane tier from its score ceiling: h0 + n*Match
// bounds every H value the DP can produce (each diagonal step gains at
// most Match, and row 0 starts at h0), and E/F never exceed H's bound.
// Where the native tier is live it takes every job within the int16
// ceiling first.
func jobTier(n, m, h0 int, sc Scoring, scTier int) int {
	c := int64(h0) + int64(n)*int64(sc.Match)
	switch {
	case scTier == tierScalar || c > swarCap16:
		return tierScalar
	case native16Live && n <= native16MaxDim && m <= native16MaxDim:
		return tierNative
	default:
		return tierSWAR16
	}
}

// Sort-key layout: tier (3 bits) | ^n (20 bits) | ^m (20 bits) | index
// (21 bits). Jobs too large for the dimension fields go to the scalar
// tier; batches longer than the index field are processed in chunks.
const (
	swarKeyIdxBits = 21
	swarKeyDimBits = 20
	swarKeyIdxMask = 1<<swarKeyIdxBits - 1
	swarKeyDimMask = 1<<swarKeyDimBits - 1
	swarMaxDim     = swarKeyDimMask
	swarMaxChunk   = 1 << swarKeyIdxBits
)

// ExtendBandedBatchWS extends every job with the banded kernel (band w,
// shared Scoring) and writes results[i] for jobs[i]. When bds is non-nil
// (len >= len(jobs)) it receives each job's band-boundary E capture;
// bds[i].E aliases workspace arena memory, valid until the next batch run
// on ws. Score fields and boundaries are bit-identical to running
// ExtendBandedWS per job; only the Rows/Cells accounting differs on the
// packed tiers (full-sweep counts instead of early-terminated ones).
func ExtendBandedBatchWS(ws *Workspace, jobs []Job, sc Scoring, w int, results []ExtendResult, bds []BandBoundary) {
	extendBatchWS(ws, jobs, sc, w, results, bds)
}

// ExtendBatchFullWS is the full-width counterpart of ExtendBandedBatchWS
// (no band, no boundary capture), bit-identical on score fields to
// running ExtendWS per job.
func ExtendBatchFullWS(ws *Workspace, jobs []Job, sc Scoring, results []ExtendResult) {
	extendBatchWS(ws, jobs, sc, -1, results, nil)
}

func extendBatchWS(ws *Workspace, jobs []Job, sc Scoring, w int, results []ExtendResult, bds []BandBoundary) {
	if len(jobs) == 0 {
		return
	}
	if bds != nil {
		// Carve one pre-zeroed boundary buffer per job out of the arena.
		total := 0
		for i := range jobs {
			total += len(jobs[i].Q) + 1
		}
		arena := ws.boundaryArena(total)
		off := 0
		for i := range jobs {
			n1 := len(jobs[i].Q) + 1
			bds[i] = BandBoundary{E: arena[off : off+n1 : off+n1]}
			off += n1
		}
	}
	for start := 0; start < len(jobs); start += swarMaxChunk {
		end := start + swarMaxChunk
		if end > len(jobs) {
			end = len(jobs)
		}
		var cb []BandBoundary
		if bds != nil {
			cb = bds[start:end]
		}
		extendBatchChunk(ws, jobs[start:end], sc, w, results[start:end], cb)
	}
}

func extendBatchChunk(ws *Workspace, jobs []Job, sc Scoring, w int, results []ExtendResult, bds []BandBoundary) {
	scTier := swarScoringTier(sc)
	var tally chunkTally
	defer tally.flushWithCells(results)
	keys := ws.batchKeys
	if cap(keys) < len(jobs) {
		keys = make([]uint64, 0, len(jobs))
	}
	keys = keys[:0]
	for i := range jobs {
		n, m := len(jobs[i].Q), len(jobs[i].T)
		if jobs[i].H0 <= 0 || n == 0 {
			// Degenerate extension: the kernels report an empty result and
			// an all-zero boundary (already cleared in the arena).
			results[i] = ExtendResult{}
			tally.degenerate++
			continue
		}
		tier := tierScalar
		if n <= swarMaxDim && m <= swarMaxDim {
			tier = jobTier(n, m, jobs[i].H0, sc, scTier)
		}
		tally.jobs[tier]++
		keys = append(keys,
			uint64(tier)<<(swarKeyIdxBits+2*swarKeyDimBits)|
				uint64(^n&swarKeyDimMask)<<(swarKeyIdxBits+swarKeyDimBits)|
				uint64(^m&swarKeyDimMask)<<swarKeyIdxBits|
				uint64(i))
	}
	slices.Sort(keys)
	ws.batchKeys = keys

	idx := 0
	for idx < len(keys) {
		tier := int(keys[idx] >> (swarKeyIdxBits + 2*swarKeyDimBits))
		if tier == tierScalar {
			i := int(keys[idx] & swarKeyIdxMask)
			var bd []int
			if bds != nil {
				bd = bds[i].E
			}
			results[i], _ = extendCoreWS(ws, jobs[i].Q, jobs[i].T, jobs[i].H0, sc, w, bd)
			idx++
			continue
		}
		laneWidth := tiers[tier].lanes
		gEnd := idx + 1
		for gEnd < idx+laneWidth && gEnd < len(keys) &&
			int(keys[gEnd]>>(swarKeyIdxBits+2*swarKeyDimBits)) == tier {
			gEnd++
		}
		// The group's sweep envelope is set by its largest query and
		// target; lanes with a small fraction of that DP area would mostly
		// sweep padding, so a SWAR group demotes them to the scalar path.
		nMax, mMax := 0, 0
		for _, key := range keys[idx:gEnd] {
			i := int(key & swarKeyIdxMask)
			if n := len(jobs[i].Q); n > nMax {
				nMax = n
			}
			if m := len(jobs[i].T); m > mMax {
				mMax = m
			}
		}
		envelope := (nMax + 1) * (mMax + 1)
		var lanes [16]swarLane
		nl := 0
		for _, key := range keys[idx:gEnd] {
			i := int(key & swarKeyIdxMask)
			n, m := len(jobs[i].Q), len(jobs[i].T)
			var bd []int
			if bds != nil {
				bd = bds[i].E
			}
			if tier != tierNative && 4*(n+1)*(m+1) < envelope {
				tally.demoted[tier]++
				results[i], _ = extendCoreWS(ws, jobs[i].Q, jobs[i].T, jobs[i].H0, sc, w, bd)
				continue
			}
			lanes[nl] = swarLane{q: jobs[i].Q, t: jobs[i].T, h0: jobs[i].H0, bd: bd, res: &results[i]}
			nl++
		}
		switch {
		case nl == 0:
			// every candidate demoted; nothing packed to run
		case nl == 1:
			// A single lane gains nothing from packing; run it scalar.
			tally.solo++
			l := &lanes[0]
			*l.res, _ = extendCoreWS(ws, l.q, l.t, l.h0, sc, w, l.bd)
		default:
			tally.groups[tier]++
			tally.lanes[tier] += int64(nl)
			if tier == tierNative {
				extendNative16(ws, lanes[:nl], sc, w)
			} else {
				extendSWAR16(ws, lanes[:nl], sc, w)
			}
		}
		idx = gEnd
	}
}
