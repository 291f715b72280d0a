package core

import (
	"fmt"
	"sync/atomic"
)

// numOutcomes sizes the per-outcome counter array; Outcome values are the
// dense indices below outcomeEnd, so a new outcome cannot land outside it.
const numOutcomes = int(outcomeEnd)

// Stats aggregates check outcomes across extensions. Every counter is an
// independent atomic, so concurrent recorders (the server's extension
// workers, pipeline workers) never serialize on a shared lock — recording
// is a handful of uncontended fetch-adds.
type Stats struct {
	Total atomic.Int64
	// ThresholdOnly counts extensions proven optimal by thresholding
	// alone (Figure 14's lower series).
	ThresholdOnly atomic.Int64
	// Passed counts extensions proven optimal by the full workflow.
	Passed atomic.Int64
	// Reruns counts extensions sent back to the host.
	Reruns atomic.Int64
	// outcomes[o] counts reports with Outcome o; dense array, no map and
	// no lock on the record path.
	outcomes [numOutcomes]atomic.Int64

	// Work the batch paths skipped, which Snapshot leaves out: Snapshot
	// holds what every path records alike for a job, while only the batch
	// paths certify, and how much a rerun sweeps depends on the batch it
	// rode in. seedex-bench -fig map reads them.

	// Certified counts extensions the gapless certificate
	// (align.GaplessExtend) answered without the banded kernel; each is
	// also recorded with its outcome.
	Certified atomic.Int64
	// RerunCells counts the DP cells the default fallback's reruns swept,
	// RerunFullCells the cells of the same jobs' full matrices (n·m each).
	RerunCells     atomic.Int64
	RerunFullCells atomic.Int64
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return &Stats{} }

// Record adds one check report to the counters.
func (s *Stats) Record(rep Report) { s.record(rep) }

func (s *Stats) record(rep Report) {
	s.Total.Add(1)
	if o := rep.Outcome; o >= 0 && int(o) < numOutcomes {
		s.outcomes[o].Add(1)
	}
	if rep.ThresholdOnlyPass {
		s.ThresholdOnly.Add(1)
	}
	if rep.Pass {
		s.Passed.Add(1)
	} else {
		s.Reruns.Add(1)
	}
}

// OutcomeCount returns the number of reports recorded with outcome o.
func (s *Stats) OutcomeCount(o Outcome) int64 {
	if o < 0 || int(o) >= numOutcomes {
		return 0
	}
	return s.outcomes[o].Load()
}

// PassRate returns the fraction of extensions proven optimal.
func (s *Stats) PassRate() float64 { return s.Snapshot().PassRate() }

// ThresholdOnlyRate returns the fraction proven by thresholding alone.
func (s *Stats) ThresholdOnlyRate() float64 { return s.Snapshot().ThresholdOnlyRate() }

// StatsSnapshot is a plain (non-atomic) copy of the counters at one
// instant: the single reporting path shared by the CLI summaries and the
// server's /metrics endpoint. Taking one performs only atomic loads — no
// locks and no allocation.
type StatsSnapshot struct {
	Total         int64 `json:"total"`
	Passed        int64 `json:"passed"`
	Reruns        int64 `json:"reruns"`
	ThresholdOnly int64 `json:"threshold_only"`
	// Outcomes[o] counts reports with Outcome o (dense, indexed like the
	// live counters); use OutcomeCounts for the named non-zero view.
	Outcomes [numOutcomes]int64 `json:"-"`
}

// Snapshot reads the counters into a plain struct. Counters are read
// individually, so a snapshot taken while recorders run is approximate
// (each number is exact, their sum may straddle an in-flight record).
func (s *Stats) Snapshot() StatsSnapshot {
	var out StatsSnapshot
	out.Total = s.Total.Load()
	out.Passed = s.Passed.Load()
	out.Reruns = s.Reruns.Load()
	out.ThresholdOnly = s.ThresholdOnly.Load()
	for o := 0; o < numOutcomes; o++ {
		out.Outcomes[o] = s.outcomes[o].Load()
	}
	return out
}

// OutcomeCounts returns the non-zero outcome counters keyed by the
// outcome names ("pass-s2", "fail-edit", ...).
func (sn StatsSnapshot) OutcomeCounts() map[string]int64 {
	out := map[string]int64{}
	for o, n := range sn.Outcomes {
		if n > 0 {
			out[Outcome(o).String()] = n
		}
	}
	return out
}

// PassRate returns the fraction of extensions proven optimal.
func (sn StatsSnapshot) PassRate() float64 {
	if sn.Total == 0 {
		return 0
	}
	return float64(sn.Passed) / float64(sn.Total)
}

// ThresholdOnlyRate returns the fraction proven by thresholding alone.
func (sn StatsSnapshot) ThresholdOnlyRate() float64 {
	if sn.Total == 0 {
		return 0
	}
	return float64(sn.ThresholdOnly) / float64(sn.Total)
}

// String renders a one-line summary.
func (sn StatsSnapshot) String() string {
	if sn.Total == 0 {
		return "seedex: no extensions"
	}
	return fmt.Sprintf("seedex: %d extensions, %.2f%% passed (%.2f%% threshold-only), %d reruns",
		sn.Total, 100*sn.PassRate(), 100*sn.ThresholdOnlyRate(), sn.Reruns)
}

// String renders a one-line summary of the live counters.
func (s *Stats) String() string { return s.Snapshot().String() }
