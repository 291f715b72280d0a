package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

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

// ExtendKernelResult is one kernel's measurement over the workload.
type ExtendKernelResult struct {
	// Kernel names the code path: full/seed, full/workspace, banded/seed,
	// banded/workspace, checked/pooled, checked/workspace (scalar strict
	// checks), banded/batch, full/batch, checked/batch/paper and
	// checked/batch/strict (core.Checker.CheckBatch — the certificate,
	// packed speculation and per-job checks, no reruns), and
	// checked/batch/paper+rerun and checked/batch/strict+rerun
	// (core.Checker.ExtendBatchInto — the same plus the reruns of the
	// failed checks: the path /v1/extend runs).
	Kernel string `json:"kernel"`
	// NsPerOp is wall time per extension.
	NsPerOp float64 `json:"ns_per_op"`
	// CellsPerSec is DP throughput (computed cells per second).
	CellsPerSec float64 `json:"cells_per_sec"`
	// AllocsPerOp is heap allocations per extension in steady state.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ExtendBenchReport is the machine-readable perf snapshot emitted as
// BENCH_extend.json so future changes have a trajectory to compare
// against.
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
	// SpeedupFull is the full-band workspace kernel's cells/s over the
	// seed (reference) kernel.
	SpeedupFull float64 `json:"speedup_full_ws_vs_seed"`
	// SpeedupBanded is the banded workspace kernel's cells/s over the
	// seed banded kernel.
	SpeedupBanded float64 `json:"speedup_banded_ws_vs_seed"`
	// SpeedupBatchBanded is the packed (SWAR) banded batch kernel's
	// cells/s over the scalar workspace banded kernel — the PR 2 tentpole
	// figure.
	SpeedupBatchBanded float64 `json:"speedup_banded_batch_vs_ws"`
	// SpeedupBatchBandedNs is the same comparison in wall time per
	// extension (ns/op ratio), immune to the two paths' different cell
	// accounting (the batch kernels report a deterministic full-sweep
	// count; the scalar kernel counts early-exited rows).
	SpeedupBatchBandedNs float64 `json:"speedup_banded_batch_vs_ws_nsop"`
	// SpeedupBatchFull is the packed full-width batch kernel's cells/s
	// over the scalar workspace full-width kernel.
	SpeedupBatchFull float64 `json:"speedup_full_batch_vs_ws"`
}

// JSON renders the report for BENCH_extend.json.
func (r ExtendBenchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ExtendRun is one recorded run in the BENCH_extend.json history: the
// report plus the PR (or other label) that produced it.
type ExtendRun struct {
	PR string `json:"pr"`
	ExtendBenchReport
}

// ExtendHistory is the BENCH_extend.json schema: an append-only array of
// runs, oldest first — the perf trajectory across PRs. Consumers wanting
// "the current numbers" read the latest entry (usually constrained to
// their workload's read length).
type ExtendHistory struct {
	Runs []ExtendRun `json:"runs"`
}

// JSON renders the history for BENCH_extend.json.
func (h ExtendHistory) JSON() ([]byte, error) {
	return json.MarshalIndent(h, "", "  ")
}

// ParseExtendHistory decodes a BENCH_extend.json document. The legacy
// schema — a single bare ExtendBenchReport object — converts to a
// one-run history labeled "legacy", so appending to a pre-history file
// preserves its measurement as the first trajectory point.
func ParseExtendHistory(data []byte) (ExtendHistory, error) {
	var h ExtendHistory
	if len(bytes.TrimSpace(data)) == 0 {
		return h, nil
	}
	var probe struct {
		Runs *[]ExtendRun `json:"runs"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return h, fmt.Errorf("bench: parsing extend history: %w", err)
	}
	if probe.Runs == nil {
		var legacy ExtendBenchReport
		if err := json.Unmarshal(data, &legacy); err != nil {
			return h, fmt.Errorf("bench: parsing legacy extend report: %w", err)
		}
		h.Runs = []ExtendRun{{PR: "legacy", ExtendBenchReport: legacy}}
		return h, nil
	}
	h.Runs = *probe.Runs
	return h, nil
}

// ReadExtendHistory loads the history file at path; a missing file is an
// empty history (the first run creates it).
func ReadExtendHistory(path string) (ExtendHistory, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ExtendHistory{}, nil
	}
	if err != nil {
		return ExtendHistory{}, err
	}
	return ParseExtendHistory(data)
}

// String renders a human-readable summary table.
func (r ExtendBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %12s %14s %10s\n", "kernel", "ns/op", "cells/s", "allocs/op")
	for _, k := range r.Kernels {
		fmt.Fprintf(&b, "%-26s %12.0f %14.3e %10.2f\n", k.Kernel, k.NsPerOp, k.CellsPerSec, k.AllocsPerOp)
	}
	fmt.Fprintf(&b, "full-band workspace vs seed kernel: %.2fx cells/s\n", r.SpeedupFull)
	fmt.Fprintf(&b, "banded    workspace vs seed kernel: %.2fx cells/s\n", r.SpeedupBanded)
	fmt.Fprintf(&b, "banded    batch (SWAR) vs workspace: %.2fx cells/s, %.2fx ns/op\n", r.SpeedupBatchBanded, r.SpeedupBatchBandedNs)
	fmt.Fprintf(&b, "full-band batch (SWAR) vs workspace: %.2fx cells/s", r.SpeedupBatchFull)
	return b.String()
}

// allocsDuring returns the heap allocations and bytes fn makes on one
// processor after a collection: the steady-state count via the runtime's
// malloc counters (bench is a library, so testing.AllocsPerRun is not
// available).
func allocsDuring(fn func()) (mallocs, bytes uint64) {
	prev := runtime.GOMAXPROCS(1)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	runtime.GOMAXPROCS(prev)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// measureKernel times fn over every problem for the given number of
// rounds (after one warmup pass) and samples steady-state allocations.
// fn returns the number of DP cells the call computed.
func measureKernel(name string, probs []Problem, rounds int, fn func(Problem) int64) ExtendKernelResult {
	for _, p := range probs {
		fn(p) // warm caches, pools and workspaces
	}
	var cells int64
	ops := 0
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range probs {
			cells += fn(probs[i])
			ops++
		}
	}
	elapsed := time.Since(start)

	mallocs, _ := allocsDuring(func() {
		for i := range probs {
			fn(probs[i])
		}
	})

	return ExtendKernelResult{
		Kernel:      name,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		CellsPerSec: float64(cells) / elapsed.Seconds(),
		AllocsPerOp: float64(mallocs) / float64(len(probs)),
	}
}

// extendBatchSize is the chunk handed to the packed batch kernels per
// call — the shape of one accelerator DMA batch.
const extendBatchSize = 256

// measureBatch times a batch kernel over the problems in chunks of
// extendBatchSize, reporting per-extension figures comparable with
// measureKernel's rows. fn processes jobs[lo:hi] and returns the DP cells
// it computed.
func measureBatch(name string, probs []Problem, rounds int, fn func(jobs []align.Job) int64) ExtendKernelResult {
	jobs := make([]align.Job, len(probs))
	for i, p := range probs {
		jobs[i] = align.Job{Q: p.Q, T: p.T, H0: p.H0}
	}
	sweep := func() int64 {
		var cells int64
		for lo := 0; lo < len(jobs); lo += extendBatchSize {
			hi := lo + extendBatchSize
			if hi > len(jobs) {
				hi = len(jobs)
			}
			cells += fn(jobs[lo:hi])
		}
		return cells
	}
	sweep() // warm workspaces
	var cells int64
	ops := 0
	start := time.Now()
	for r := 0; r < rounds; r++ {
		cells += sweep()
		ops += len(jobs)
	}
	elapsed := time.Since(start)

	mallocs, _ := allocsDuring(func() { sweep() })

	return ExtendKernelResult{
		Kernel:      name,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		CellsPerSec: float64(cells) / elapsed.Seconds(),
		AllocsPerOp: float64(mallocs) / float64(len(probs)),
	}
}

// ExtendBench measures every extension code path over the workload's
// harvested problems: the reference ("seed") kernels, the workspace
// kernels, and the full check workflow (pooled and workspace-held).
func ExtendBench(w *Workload, band, rounds int) ExtendBenchReport {
	if rounds <= 0 {
		rounds = 3
	}
	probs := w.Problems
	sc := w.Scoring
	rep := ExtendBenchReport{
		Problems:   len(probs),
		Band:       band,
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
	ccfg := core.Config{Band: band, Scoring: sc, Kind: core.SemiGlobal, Mode: core.ModeStrict}
	chk := core.NewChecker(ccfg)

	rep.Kernels = append(rep.Kernels,
		measureKernel("full/seed", probs, rounds, func(p Problem) int64 {
			return align.ExtendRef(p.Q, p.T, p.H0, sc).Cells
		}),
		measureKernel("full/workspace", probs, rounds, func(p Problem) int64 {
			return align.ExtendWS(ws, p.Q, p.T, p.H0, sc).Cells
		}),
		measureKernel("banded/seed", probs, rounds, func(p Problem) int64 {
			r, _ := align.ExtendBandedRef(p.Q, p.T, p.H0, sc, band)
			return r.Cells
		}),
		measureKernel("banded/workspace", probs, rounds, func(p Problem) int64 {
			r, _ := align.ExtendBandedWS(ws, p.Q, p.T, p.H0, sc, band)
			return r.Cells
		}),
		measureKernel("checked/pooled", probs, rounds, func(p Problem) int64 {
			r, _ := core.Check(p.Q, p.T, p.H0, ccfg)
			return r.Cells
		}),
		measureKernel("checked/workspace", probs, rounds, func(p Problem) int64 {
			r, _ := chk.Check(p.Q, p.T, p.H0)
			return r.Cells
		}),
	)
	// Packed inter-sequence (SWAR) batch kernels: many problems share each
	// machine word, so these rows are the software mirror of the
	// accelerator's batch datapath.
	bres := make([]align.ExtendResult, extendBatchSize)
	rep.Kernels = append(rep.Kernels,
		measureBatch("banded/batch", probs, rounds, func(jobs []align.Job) int64 {
			align.ExtendBandedBatchWS(ws, jobs, sc, band, bres[:len(jobs)], nil)
			var cells int64
			for i := range jobs {
				cells += bres[i].Cells
			}
			return cells
		}),
		measureBatch("full/batch", probs, rounds, func(jobs []align.Job) int64 {
			align.ExtendBatchFullWS(ws, jobs, sc, bres[:len(jobs)])
			var cells int64
			for i := range jobs {
				cells += bres[i].Cells
			}
			return cells
		}),
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
			rep.Kernels = append(rep.Kernels,
				measureBatch("checked/batch/"+mode.name+path.suffix, probs, rounds, func(jobs []align.Job) int64 {
					for i, j := range jobs {
						reqs[i] = core.Request{Q: j.Q, T: j.T, H0: j.H0}
					}
					path.run(reqs[:len(jobs)])
					var cells int64
					for i := range resps {
						cells += resps[i].Res.Cells
					}
					return cells
				}))
		}
	}
	byName := map[string]ExtendKernelResult{}
	for _, k := range rep.Kernels {
		byName[k.Kernel] = k
	}
	if s := byName["full/seed"].CellsPerSec; s > 0 {
		rep.SpeedupFull = byName["full/workspace"].CellsPerSec / s
	}
	if s := byName["banded/seed"].CellsPerSec; s > 0 {
		rep.SpeedupBanded = byName["banded/workspace"].CellsPerSec / s
	}
	if s := byName["banded/workspace"].CellsPerSec; s > 0 {
		rep.SpeedupBatchBanded = byName["banded/batch"].CellsPerSec / s
	}
	if s := byName["banded/batch"].NsPerOp; s > 0 {
		rep.SpeedupBatchBandedNs = byName["banded/workspace"].NsPerOp / s
	}
	if s := byName["full/workspace"].CellsPerSec; s > 0 {
		rep.SpeedupBatchFull = byName["full/batch"].CellsPerSec / s
	}
	return rep
}
