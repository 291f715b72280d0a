package align

import "sync/atomic"

// Kernel-level batch telemetry: process-wide atomic counters the batch
// kernels bump once per chunk (a handful of uncontended adds per batch,
// nothing per cell or per lane), surfaced through the server's metrics
// registry as tier mix, demotion counts, lane occupancy and cells/s.

// kernelCounters is the live counter set behind KernelSnapshot.
type kernelCounters struct {
	batches    atomic.Int64
	jobs       [numTiers]atomic.Int64 // per assigned tier
	degenerate atomic.Int64
	demoted    [numTiers]atomic.Int64 // demotions per assigned tier
	solo       atomic.Int64
	groups     [numTiers]atomic.Int64 // executed groups per kernel tier
	lanes      [numTiers]atomic.Int64 // lanes filled per kernel tier
	cells      atomic.Int64
}

var ktel kernelCounters

// KernelTelemetry is a plain snapshot of the batch kernels' counters.
type KernelTelemetry struct {
	// Batches counts batch-kernel invocations (chunks).
	Batches int64 `json:"batches"`
	// Jobs counts jobs per assigned tier (index TierNative .. TierScalar).
	Jobs [numTiers]int64 `json:"jobs_per_tier"`
	// Degenerate counts jobs that never entered the tier ladder (empty
	// query or non-positive h0).
	Degenerate int64 `json:"degenerate"`
	// Demoted counts jobs assigned a SWAR tier but run scalar because
	// their DP area diverged from their lane group's envelope, indexed by
	// the tier they were assigned (the scalar slot stays zero).
	Demoted [numTiers]int64 `json:"demoted_per_tier"`
	// Solo counts jobs run scalar because their group filled one lane.
	Solo int64 `json:"solo"`
	// Groups counts packed lane groups per kernel tier; Lanes the lanes
	// filled across them.
	Groups [numTiers]int64 `json:"groups_per_tier"`
	Lanes  [numTiers]int64 `json:"lanes_per_tier"`
	// Cells counts DP cells swept by the batch kernels.
	Cells int64 `json:"cells"`
}

// TotalGroups sums executed packed groups across tiers.
func (k KernelTelemetry) TotalGroups() int64 {
	var g int64
	for _, v := range k.Groups {
		g += v
	}
	return g
}

// TotalLanes sums filled lanes across tiers.
func (k KernelTelemetry) TotalLanes() int64 {
	var l int64
	for _, v := range k.Lanes {
		l += v
	}
	return l
}

// TotalDemoted sums envelope demotions across assigned tiers.
func (k KernelTelemetry) TotalDemoted() int64 {
	var d int64
	for _, v := range k.Demoted {
		d += v
	}
	return d
}

// LaneOccupancy returns the mean lanes filled per packed group.
func (k KernelTelemetry) LaneOccupancy() float64 {
	g := k.TotalGroups()
	if g == 0 {
		return 0
	}
	return float64(k.TotalLanes()) / float64(g)
}

// LaneUtilization returns filled lanes over lane capacity across every
// executed packed group (1.0 = every lane of every group carried a job).
func (k KernelTelemetry) LaneUtilization() float64 {
	var lanes, capacity int64
	for t := 0; t < numTiers; t++ {
		lanes += k.Lanes[t]
		capacity += k.Groups[t] * int64(LaneWidth(t))
	}
	if capacity == 0 {
		return 0
	}
	return float64(lanes) / float64(capacity)
}

// TierLaneUtilization is LaneUtilization restricted to one kernel tier.
func (k KernelTelemetry) TierLaneUtilization(tier int) float64 {
	if tier < 0 || tier >= numTiers || k.Groups[tier] == 0 {
		return 0
	}
	return float64(k.Lanes[tier]) / float64(k.Groups[tier]*int64(LaneWidth(tier)))
}

// KernelSnapshot reads the live batch-kernel counters.
func KernelSnapshot() KernelTelemetry {
	var out KernelTelemetry
	out.Batches = ktel.batches.Load()
	for i := range out.Jobs {
		out.Jobs[i] = ktel.jobs[i].Load()
		out.Demoted[i] = ktel.demoted[i].Load()
		out.Groups[i] = ktel.groups[i].Load()
		out.Lanes[i] = ktel.lanes[i].Load()
	}
	out.Degenerate = ktel.degenerate.Load()
	out.Solo = ktel.solo.Load()
	out.Cells = ktel.cells.Load()
	return out
}

// Tier indices, exported for telemetry consumers; they equal the
// internal sort-key tiers.
const (
	TierNative = tierNative
	TierSWAR8  = tierSWAR8
	TierSWAR16 = tierSWAR16
	TierScalar = tierScalar

	// NumTiers is the tier-ladder length (for telemetry arrays).
	NumTiers = numTiers
)

// TierName names a tier for metrics labels and trace exports ("unknown"
// outside the ladder).
func TierName(tier int) string {
	if tier < 0 || tier >= numTiers {
		return "unknown"
	}
	return tiers[tier].name
}

// LaneWidth reports the lane count of a tier's packed kernel (1 for the
// scalar tier and outside the ladder).
func LaneWidth(tier int) int {
	if tier < 0 || tier >= numTiers {
		return 1
	}
	return tiers[tier].lanes
}

// TierOf reports the batch tier the ladder assigns a job of query length
// n, target length m and seed score h0 under sc — the lane width the
// packed kernels select before any divergence demotion: the native tier
// on hosts that have it, for every job it admits.
func TierOf(n, m, h0 int, sc Scoring) int {
	if h0 <= 0 || n == 0 {
		return tierScalar
	}
	if n > swarMaxDim || m > swarMaxDim {
		return tierScalar
	}
	return jobTier(n, m, h0, sc, swarScoringTier(sc))
}

// Shape-bin scheduling: a caller that forms batches over time (the server
// micro-batcher) keys jobs by ShapeBin so each flushed batch packs
// near-homogeneous lanes — length-binned workload balance *across*
// batches, per SaLoBa, rather than hoping one batch's internal sort finds
// enough same-shape neighbours.

// shapeLenClasses are the upper bounds of the scheduling length classes
// (max of query and target length); the last class is open-ended.
var shapeLenClasses = [...]int{96, 160, 256}

// NumShapeBins is the number of distinct values ShapeBin returns.
const NumShapeBins = numTiers * (len(shapeLenClasses) + 1)

// ShapeBin buckets one extension problem for cross-batch scheduling:
// the tier the ladder would assign (the lane width it can share) crossed
// with a coarse length class (the sweep envelope it would impose on its
// lane group). Jobs sharing a bin pack into dense lane groups with
// little padding; jobs from different bins would demote each other.
// Where the native tier is live nearly every job reports it, so the bins
// collapse to the length classes and a flushed batch fills its lanes from
// jobs the portable ladder would split across tiers.
func ShapeBin(n, m, h0 int, sc Scoring) int {
	tier := TierOf(n, m, h0, sc)
	d := n
	if m > d {
		d = m
	}
	class := len(shapeLenClasses)
	for i, ub := range shapeLenClasses {
		if d <= ub {
			class = i
			break
		}
	}
	return tier*(len(shapeLenClasses)+1) + class
}

// chunkTally accumulates one chunk's counters locally so the hot loop
// performs plain adds and the chunk flushes as a few atomic adds.
type chunkTally struct {
	jobs       [numTiers]int64
	degenerate int64
	demoted    [numTiers]int64
	solo       int64
	groups     [numTiers]int64
	lanes      [numTiers]int64
	cells      int64
}

// flushWithCells sums the chunk's swept cells from the filled results and
// publishes the tally (deferred at the top of extendBatchChunk, so it
// runs after every result landed).
func (c *chunkTally) flushWithCells(results []ExtendResult) {
	for i := range results {
		c.cells += results[i].Cells
	}
	c.flush()
}

func (c *chunkTally) flush() {
	ktel.batches.Add(1)
	for i := range c.jobs {
		if c.jobs[i] != 0 {
			ktel.jobs[i].Add(c.jobs[i])
		}
		if c.demoted[i] != 0 {
			ktel.demoted[i].Add(c.demoted[i])
		}
		if c.groups[i] != 0 {
			ktel.groups[i].Add(c.groups[i])
		}
		if c.lanes[i] != 0 {
			ktel.lanes[i].Add(c.lanes[i])
		}
	}
	if c.degenerate != 0 {
		ktel.degenerate.Add(c.degenerate)
	}
	if c.solo != 0 {
		ktel.solo.Add(c.solo)
	}
	if c.cells != 0 {
		ktel.cells.Add(c.cells)
	}
}
