package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"seedex/internal/bwamem"
	"seedex/internal/core"
)

// mapPathBand is the SeedEx band the map-path benchmark extends with: the
// daemon's default, in ModeStrict.
const mapPathBand = 20

// mapPathRounds is how many timed Aligner.Run passes a row's median and
// range are taken over.
const mapPathRounds = 5

// MapStageRow is one stage of a mapped read: the median over the timed
// rounds, with the range the rounds spanned.
type MapStageRow struct {
	// Stage is map/seed (Seeder calls), map/extend (Extender calls),
	// map/rest (candidate resolution, chaining, traceback, SAM) or
	// map/total, from the bwamem.Stats stage counters.
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

// mapPathHistory is the BENCH_map.json schema: an append-only array of
// labeled reports, oldest first, like BENCH_extend.json.
type mapPathHistory struct {
	Runs []mapPathRun `json:"runs"`
}

type mapPathRun struct {
	PR string `json:"pr"`
	MapPathReport
}

// AppendMapPathRun appends rep, labeled pr, to the history file at path (a
// missing file is an empty history) and returns the number of runs it now
// holds.
func AppendMapPathRun(path, pr string, rep MapPathReport) (int, error) {
	var h mapPathHistory
	data, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(data, &h); err != nil {
			return 0, fmt.Errorf("bench: parsing map-path history %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	h.Runs = append(h.Runs, mapPathRun{PR: pr, MapPathReport: rep})
	if data, err = json.MarshalIndent(h, "", "  "); err != nil {
		return 0, err
	}
	return len(h.Runs), os.WriteFile(path, data, 0o644)
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
		r.AllocsPerRead, r.BytesPerRead, r.Reads, mapPathRounds)
	fmt.Fprintf(&b, "%d traced sides, %d matrix fills: %.3f fills per side\n",
		r.TraceSides, r.TraceFills, float64(r.TraceFills)/float64(max(r.TraceSides, 1)))
	fmt.Fprintf(&b, "%.1f%% of extensions certified gapless; reruns swept %d of their %d full-band cells (%.2f)",
		100*r.CertifiedShare, r.RerunCells, r.RerunFullCells, float64(r.RerunCells)/float64(max(r.RerunFullCells, 1)))
	return b.String()
}

// MapPathBench times Aligner.Run over the workload's reads with the
// strict SeedEx extender and splits a read into its stages.
func MapPathBench(w *Workload, workers int) (MapPathReport, error) {
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
	_, warm := a.Run(reads, workers) // warm caches and the extender's pools
	rep.TraceSides, rep.TraceFills = warm.TraceSides, warm.TraceFills
	st := se.Stats
	rep.CertifiedShare = float64(st.Certified.Load()) / float64(max(st.Total.Load(), 1))
	rep.RerunCells, rep.RerunFullCells = st.RerunCells.Load(), st.RerunFullCells.Load()

	stages := [...]string{"map/seed", "map/extend", "map/rest", "map/total"}
	var perRead [len(stages)][]float64
	for r := 0; r < mapPathRounds; r++ {
		_, st := a.Run(reads, workers)
		for i, ns := range [...]int64{st.SeedingNs, st.ExtensionNs, st.RestNs, st.TotalNs} {
			perRead[i] = append(perRead[i], float64(ns)/float64(len(reads)))
		}
	}
	for i, stage := range stages {
		sort.Float64s(perRead[i])
		rep.Rows = append(rep.Rows, MapStageRow{
			Stage:        stage,
			NsPerRead:    perRead[i][mapPathRounds/2],
			MinNsPerRead: perRead[i][0],
			MaxNsPerRead: perRead[i][mapPathRounds-1],
		})
	}

	mallocs, bytes := allocsDuring(func() { a.Run(reads, 1) })
	rep.AllocsPerRead = float64(mallocs) / float64(len(reads))
	rep.BytesPerRead = float64(bytes) / float64(len(reads))
	return rep, nil
}
