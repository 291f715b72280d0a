package bench

import (
	"fmt"
	"runtime"
	"strings"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/readsim"
)

// Workload150 builds the standard 150 bp extension workload used by the
// kernel benchmarks (the perf-trajectory baseline): realistic error
// profile at the longer modern Illumina read length.
func Workload150(refLen, nReads int, seed int64) (*Workload, error) {
	cfg := readsim.RealisticConfig(nReads)
	cfg.ReadLen = 150
	return BuildWorkloadCfg(refLen, cfg, seed)
}

// extendBand is the one-sided band of the banded and checked rows.
const extendBand = 21

// ExtendKernelResult is one kernel's measurement over the workload.
type ExtendKernelResult struct {
	// Kernel names the code path: full/workspace, banded/workspace,
	// checked/workspace (scalar strict checks), banded/batch, full/batch,
	// checked/batch/paper and checked/batch/strict
	// (core.Checker.CheckBatch — the certificate, packed speculation and
	// per-job checks, no reruns), and checked/batch/paper+rerun and
	// checked/batch/strict+rerun (core.Checker.ExtendBatchInto — the same
	// plus the reruns of the failed checks: the path /v1/extend runs).
	Kernel string `json:"kernel"`
	// NsPerOp is the median wall time per extension over the timed
	// passes, MinNsPerOp and MaxNsPerOp the range they spanned.
	NsPerOp    float64 `json:"ns_per_op"`
	MinNsPerOp float64 `json:"min_ns_per_op"`
	MaxNsPerOp float64 `json:"max_ns_per_op"`
	// CellsPerOp is the DP cells the kernel computed per extension: a pure
	// function of the workload's seed.
	CellsPerOp float64 `json:"cells_per_op"`
	// AllocsPerOp is heap allocations per extension in steady state.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ExtendBenchReport is one BENCH_extend.json entry: every extension code
// path over the 150 bp workload's harvested problems.
type ExtendBenchReport struct {
	ReadLen  int `json:"read_len"`
	Problems int `json:"problems"`
	Band     int `json:"band"`
	// GoMaxProcs, NumCPU and GoVersion pin what the run measured under
	// (absent from entries recorded before PR 12).
	GoMaxProcs int                  `json:"gomaxprocs,omitempty"`
	NumCPU     int                  `json:"num_cpu,omitempty"`
	GoVersion  string               `json:"go_version,omitempty"`
	Kernels    []ExtendKernelResult `json:"kernels"`
}

// String renders a human-readable summary table.
func (r ExtendBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %10s %10s %10s %10s\n", "kernel", "ns/op", "min", "max", "cells/op", "allocs/op")
	for _, k := range r.Kernels {
		fmt.Fprintf(&b, "%-26s %10.0f %10.0f %10.0f %10.1f %10.2f\n",
			k.Kernel, k.NsPerOp, k.MinNsPerOp, k.MaxNsPerOp, k.CellsPerOp, k.AllocsPerOp)
	}
	fmt.Fprintf(&b, "%d problems, band %d (median and range of %d interleaved rounds)", r.Problems, r.Band, rounds)
	return b.String()
}

// extendBatchSize is the chunk handed to the packed batch kernels per
// call — the shape of one accelerator DMA batch.
const extendBatchSize = 256

// scalarSweep runs fn over the problems one at a time and returns the DP
// cells it computed.
func scalarSweep(probs []Problem, fn func(Problem) int64) func() int64 {
	return func() int64 {
		var cells int64
		for i := range probs {
			cells += fn(probs[i])
		}
		return cells
	}
}

// batchSweep runs fn over the problems in chunks of extendBatchSize and
// returns the DP cells it computed.
func batchSweep(probs []Problem, fn func(jobs []align.Job) int64) func() int64 {
	jobs := make([]align.Job, len(probs))
	for i, p := range probs {
		jobs[i] = align.Job{Q: p.Q, T: p.T, H0: p.H0}
	}
	return func() int64 {
		var cells int64
		for lo := 0; lo < len(jobs); lo += extendBatchSize {
			cells += fn(jobs[lo:min(lo+extendBatchSize, len(jobs))])
		}
		return cells
	}
}

// ExtendBench measures every extension code path over the workload's
// harvested problems: the scalar workspace kernels, the packed batch
// kernels and the check workflow, scalar and batched.
func ExtendBench(w *Workload) ExtendBenchReport {
	probs := w.Problems
	sc := w.Scoring
	rep := ExtendBenchReport{
		Problems:   len(probs),
		Band:       extendBand,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	if len(w.Reads) > 0 {
		rep.ReadLen = len(w.Reads[0].Seq)
	}
	if len(probs) == 0 {
		return rep
	}

	ws := align.NewWorkspace()
	ccfg := core.Config{Band: extendBand, Scoring: sc, Kind: core.SemiGlobal, Mode: core.ModeStrict}
	chk := core.NewChecker(ccfg)
	type kernel struct {
		name  string
		sweep func() int64
	}
	kernels := []kernel{
		{"full/workspace", scalarSweep(probs, func(p Problem) int64 {
			return align.ExtendWS(ws, p.Q, p.T, p.H0, sc).Cells
		})},
		{"banded/workspace", scalarSweep(probs, func(p Problem) int64 {
			r, _ := align.ExtendBandedWS(ws, p.Q, p.T, p.H0, sc, extendBand)
			return r.Cells
		})},
		{"checked/workspace", scalarSweep(probs, func(p Problem) int64 {
			r, _ := chk.Check(p.Q, p.T, p.H0)
			return r.Cells
		})},
	}
	// Packed inter-sequence (SWAR) batch kernels: many problems share each
	// machine word, so these rows are the software mirror of the
	// accelerator's batch datapath.
	bres := make([]align.ExtendResult, extendBatchSize)
	sumCells := func(res []align.ExtendResult) int64 {
		var cells int64
		for i := range res {
			cells += res[i].Cells
		}
		return cells
	}
	kernels = append(kernels,
		kernel{"banded/batch", batchSweep(probs, func(jobs []align.Job) int64 {
			align.ExtendBandedBatchWS(ws, jobs, sc, extendBand, bres[:len(jobs)], nil)
			return sumCells(bres[:len(jobs)])
		})},
		kernel{"full/batch", batchSweep(probs, func(jobs []align.Job) int64 {
			align.ExtendBatchFullWS(ws, jobs, sc, bres[:len(jobs)])
			return sumCells(bres[:len(jobs)])
		})},
	)
	// The checked batch path per mode: what one served job costs before
	// its (possible) host rerun, then with the reruns — what /v1/extend
	// runs per batch.
	reqs := make([]core.Request, extendBatchSize)
	var resps []core.Response
	for _, mode := range []struct {
		name string
		mode core.Mode
	}{{"paper", core.ModePaper}, {"strict", core.ModeStrict}} {
		mcfg := ccfg
		mcfg.Mode = mode.mode
		bchk := core.NewChecker(mcfg)
		for _, path := range []struct {
			suffix string
			run    func([]core.Request)
		}{
			{"", func(r []core.Request) { resps, _ = bchk.CheckBatch(r, resps) }},
			{"+rerun", func(r []core.Request) { resps = bchk.ExtendBatchInto(r, resps) }},
		} {
			kernels = append(kernels, kernel{"checked/batch/" + mode.name + path.suffix, batchSweep(probs, func(jobs []align.Job) int64 {
				for i, j := range jobs {
					reqs[i] = core.Request{Q: j.Q, T: j.T, H0: j.H0}
				}
				path.run(reqs[:len(jobs)])
				var cells int64
				for i := range resps {
					cells += resps[i].Res.Cells
				}
				return cells
			})})
		}
	}

	rows := make([]func() []float64, len(kernels))
	for i, k := range kernels {
		rows[i] = perOp(len(probs), k.sweep)
	}
	ns := timeRounds(rows...)
	n := float64(len(probs))
	for i, k := range kernels {
		var cells int64
		mallocs, _ := allocsDuring(func() { cells = k.sweep() })
		rep.Kernels = append(rep.Kernels, ExtendKernelResult{
			Kernel:      k.name,
			NsPerOp:     median(ns[i]),
			MinNsPerOp:  ns[i][0],
			MaxNsPerOp:  ns[i][rounds-1],
			CellsPerOp:  float64(cells) / n,
			AllocsPerOp: float64(mallocs) / n,
		})
	}
	return rep
}
