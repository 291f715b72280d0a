package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"seedex/internal/bwamem"
	"seedex/internal/core"
)

// mapPathBand is the SeedEx band the map-path benchmark extends with: the
// daemon's default, in ModeStrict.
const mapPathBand = 20

// mapStages names Aligner.Run's stage times, in the order MapPathBench
// measures them.
var mapStages = [...]string{"map/seed", "map/extend", "map/rest", "map/total"}

// MapStageRow is one stage of a mapped read: the median over the timed
// rounds, with the range the rounds spanned.
type MapStageRow struct {
	// Stage is map/seed, map/extend, map/rest or map/total: the
	// bwamem.Stats stage times, which sum the blocks' bwamem.BatchTimes
	// (extend includes job building and the per-chain winners; rest is
	// chaining, ranking, traceback and SAM). Older entries timed seed and
	// extend with per-call probes, at the worker count they ran with.
	Stage        string  `json:"stage"`
	NsPerRead    float64 `json:"ns_per_read"`
	MinNsPerRead float64 `json:"min_ns_per_read"`
	MaxNsPerRead float64 `json:"max_ns_per_read"`
}

// MapPathReport is one BENCH_map.json entry: where Aligner.Run spends a
// mapped read on the 150 bp workload with the strict SeedEx extender.
type MapPathReport struct {
	ReadLen    int           `json:"read_len"`
	Reads      int           `json:"reads"`
	RefLen     int           `json:"ref_len"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	GoVersion  string        `json:"go_version"`
	Rows       []MapStageRow `json:"rows"`
	// AllocsPerRead and BytesPerRead are the heap allocations of one
	// single-worker Run pass (SAM records included), per read.
	AllocsPerRead float64 `json:"allocs_per_read"`
	BytesPerRead  float64 `json:"bytes_per_read"`
	// TraceSides is how many extension sides one pass traced on the host,
	// TraceFills how many of them filled DP matrices (bwamem.Stats): counts
	// that repeat exactly per workload (absent from entries older than PR 27).
	TraceSides int64 `json:"trace_sides,omitempty"`
	TraceFills int64 `json:"trace_fills,omitempty"`
	// CertifiedShare is the share of one pass's extensions the gapless
	// certificate answered without a matrix; RerunCells the DP cells that
	// pass's reruns swept, RerunFullCells the cells of the same reruns'
	// full matrices (core.Stats). All three repeat exactly per workload
	// (absent from entries older than PR 32).
	CertifiedShare float64 `json:"certified_share,omitempty"`
	RerunCells     int64   `json:"rerun_cells,omitempty"`
	RerunFullCells int64   `json:"rerun_full_band_cells,omitempty"`
}

// String renders a human-readable summary table.
func (r MapPathReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %8s\n", "stage", "ns/read", "min", "max", "share")
	total := r.Rows[len(r.Rows)-1].NsPerRead
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12.0f %12.0f %12.0f %7.1f%%\n",
			row.Stage, row.NsPerRead, row.MinNsPerRead, row.MaxNsPerRead, 100*row.NsPerRead/total)
	}
	fmt.Fprintf(&b, "%.1f allocs/read, %.0f B/read over %d reads (median and range of %d rounds)\n",
		r.AllocsPerRead, r.BytesPerRead, r.Reads, rounds)
	fmt.Fprintf(&b, "%d traced sides, %d matrix fills: %.3f fills per side\n",
		r.TraceSides, r.TraceFills, float64(r.TraceFills)/float64(max(r.TraceSides, 1)))
	fmt.Fprintf(&b, "%.1f%% of extensions certified gapless; reruns swept %d of their %d full-band cells (%.2f)",
		100*r.CertifiedShare, r.RerunCells, r.RerunFullCells, float64(r.RerunCells)/float64(max(r.RerunFullCells, 1)))
	return b.String()
}

// MapPathBench times one-worker Aligner.Run passes over the workload's
// reads with the strict SeedEx extender and splits a read into its stages.
func MapPathBench(w *Workload) (MapPathReport, error) {
	reads := w.PipelineReads()
	rep := MapPathReport{
		Reads:      len(reads),
		RefLen:     len(w.Ref),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	if len(reads) == 0 {
		return rep, errors.New("bench: map-path benchmark needs reads")
	}
	rep.ReadLen = len(reads[0].Seq)
	se := core.New(mapPathBand)
	a, err := bwamem.New("chrSim", w.Ref, se)
	if err != nil {
		return rep, err
	}
	// The extender's Stats accumulate over passes: read one pass's counts.
	_, first := a.Run(reads, 1)
	rep.TraceSides, rep.TraceFills = first.TraceSides, first.TraceFills
	st := se.Stats
	rep.CertifiedShare = float64(st.Certified.Load()) / float64(max(st.Total.Load(), 1))
	rep.RerunCells, rep.RerunFullCells = st.RerunCells.Load(), st.RerunFullCells.Load()

	stages := timeRounds(func() []float64 {
		_, st := a.Run(reads, 1)
		return []float64{float64(st.SeedingNs), float64(st.ExtensionNs), float64(st.RestNs), float64(st.TotalNs)}
	})
	n := float64(len(reads))
	for i, stage := range mapStages {
		ns := stages[i]
		rep.Rows = append(rep.Rows, MapStageRow{
			Stage:        stage,
			NsPerRead:    median(ns) / n,
			MinNsPerRead: ns[0] / n,
			MaxNsPerRead: ns[rounds-1] / n,
		})
	}

	mallocs, bytes := allocsDuring(func() { a.Run(reads, 1) })
	rep.AllocsPerRead = float64(mallocs) / float64(len(reads))
	rep.BytesPerRead = float64(bytes) / float64(len(reads))
	return rep, nil
}
