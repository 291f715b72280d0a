// Package fpga is a discrete-event simulator of the SeedEx cloud-FPGA
// system architecture (paper §V, Figure 7): memory channels with AXI
// latency, per-channel SeedEx clusters, input prefetch buffers, the
// per-core arbiter, the shared edit machine of each SeedEx core, and 5:1
// output coalescing. It measures end-to-end throughput, core utilization
// and memory stalls for arbitrary workloads, and is the engine behind the
// iso-area throughput comparison of Figure 16c. A BSW core is held for
// the systolic array's latency (systolic.Latency) per extension.
package fpga

import (
	"fmt"

	"seedex/internal/hw"
	"seedex/internal/systolic"
)

// Config describes one FPGA image.
type Config struct {
	// Clusters is the number of memory channels with a SeedEx cluster
	// (the f1.2xlarge image uses 3; the AWS shell exposes 4 channels).
	Clusters int
	// CoresPerCluster is the number of SeedEx clients per channel (4,
	// chosen to balance memory bandwidth against area, §V-A).
	CoresPerCluster int
	// BSWPerCore is the number of BSW cores per SeedEx core (3, matched
	// to the ~1/3 edit-machine demand, §VII-A).
	BSWPerCore int
	// SidedBand is the one-sided band w of each BSW core; the array has
	// 2w+1 PEs. For the full-band baseline set it so 2w+1 covers the
	// query (e.g. 50 -> 101 PEs).
	SidedBand int
	// EditMachines is the number of edit machines per SeedEx core (1;
	// 0 for the full-band baseline, which needs no checks).
	EditMachines int
	// AXILatency is the memory access latency in cycles (~40 on AWS AXI4).
	AXILatency int
	// PrefetchDepth is the number of extensions prefetched per BSW core.
	PrefetchDepth int
	// CoalesceRatio is results per 512-bit output line (5).
	CoalesceRatio int
}

// DefaultSeedEx is the shipping configuration: 3 clusters x 4 SeedEx
// cores x 3 BSW cores = 36 narrow-band arrays with 41 PEs each.
func DefaultSeedEx() Config {
	return Config{
		Clusters: 3, CoresPerCluster: 4, BSWPerCore: 3,
		SidedBand: 20, EditMachines: 1,
		AXILatency: 40, PrefetchDepth: 4, CoalesceRatio: 5,
	}
}

// FullBandBaseline is the iso-area comparison point: 9 full-band BSW
// cores (101 PEs), which is as many as the paper could route.
func FullBandBaseline() Config {
	return Config{
		Clusters: 3, CoresPerCluster: 3, BSWPerCore: 1,
		SidedBand: 50, EditMachines: 0,
		AXILatency: 40, PrefetchDepth: 4, CoalesceRatio: 5,
	}
}

// PEs returns the PE count of each BSW array.
func (c Config) PEs() int { return 2*c.SidedBand + 1 }

// BSWCores returns the total BSW array count of the image.
func (c Config) BSWCores() int { return c.Clusters * c.CoresPerCluster * c.BSWPerCore }

// LUTs returns the modeled LUT budget of the image's compute.
func (c Config) LUTs() float64 {
	if c.EditMachines == 0 {
		return float64(c.BSWCores()) * hw.BSWCoreLUT(c.PEs())
	}
	return float64(c.Clusters*c.CoresPerCluster) * hw.SeedExCoreLUT(c.PEs(), c.BSWPerCore)
}

// Job is one seed extension offered to the accelerator.
type Job struct {
	QLen, TLen int
	// NeedsEdit routes the extension through the edit machine (the
	// thresholding outcome fell between S1 and S2).
	NeedsEdit bool
	// Rerun marks extensions whose checks fail; they are returned to the
	// host (counted, but they do not occupy extra FPGA time).
	Rerun bool
}

// Report summarizes a simulation.
type Report struct {
	Cycles          int64
	Extensions      int64
	Reruns          int64
	ThroughputPerS  float64 // extensions per second at the SeedEx clock
	BSWBusy         int64   // total busy cycles across BSW cores
	BSWUtilization  float64
	MemStallCycles  int64 // cycles BSW cores waited on input
	EditBusy        int64
	EditUtilization float64
	InputLines      int64
	OutputLines     int64
}

// String renders a compact summary.
func (r Report) String() string {
	return fmt.Sprintf("%d exts in %d cycles: %.2f M ext/s, BSW util %.1f%%, mem stalls %d, edit util %.1f%%",
		r.Extensions, r.Cycles, r.ThroughputPerS/1e6, 100*r.BSWUtilization, r.MemStallCycles, 100*r.EditUtilization)
}

// editCycles is the edit-machine service latency: the half-width array
// sweeps the below-band region one row per cycle.
func (c Config) editCycles(q, t int) int64 {
	rows := t - c.SidedBand
	if rows < 0 {
		rows = 0
	}
	return int64((c.PEs()+1)/2 + rows)
}

// inLines is the number of 512-bit memory lines one job's 3-bit-encoded
// input pair occupies.
func inLines(q, t int) int64 {
	bits := (q + t) * 3
	return int64((bits + 511) / 512)
}

// Simulate runs the workload through the image and reports steady-state
// behaviour. Jobs are distributed round-robin over clusters and, within a
// cluster, dispatched by the arbiter to the earliest-free BSW core.
func Simulate(cfg Config, jobs []Job) Report {
	rep := Report{}
	if len(jobs) == 0 || cfg.Clusters == 0 {
		return rep
	}
	perCluster := make([][]Job, cfg.Clusters)
	for i, j := range jobs {
		c := i % cfg.Clusters
		perCluster[c] = append(perCluster[c], j)
	}
	var maxCycles int64
	for c := 0; c < cfg.Clusters; c++ {
		cy := simulateCluster(cfg, perCluster[c], &rep)
		if cy > maxCycles {
			maxCycles = cy
		}
	}
	rep.Cycles = maxCycles
	rep.Extensions = int64(len(jobs))
	if maxCycles > 0 {
		rep.ThroughputPerS = float64(rep.Extensions) / (float64(maxCycles) * hw.ClockNs * 1e-9)
		rep.BSWUtilization = float64(rep.BSWBusy) / float64(int64(cfg.BSWCores())*maxCycles)
		if n := int64(cfg.Clusters*cfg.CoresPerCluster*cfg.EditMachines) * maxCycles; n > 0 {
			rep.EditUtilization = float64(rep.EditBusy) / float64(n)
		}
	}
	return rep
}

func simulateCluster(cfg Config, jobs []Job, rep *Report) int64 {
	nBSW := cfg.CoresPerCluster * cfg.BSWPerCore
	coreFree := make([]int64, nBSW)                // next cycle each BSW core is free
	editFree := make([]int64, cfg.CoresPerCluster) // per-SeedEx-core edit machine
	var chanFree int64                             // memory channel bandwidth (1 line/cycle)
	fetchDone := make([]int64, len(jobs))
	var outPending int64 // results awaiting coalescing into one line
	var done int64

	// Prefetch pipeline: job k's fetch is issued as soon as bandwidth
	// allows, but at most PrefetchDepth jobs ahead of the consuming
	// core's progress; with the paper's buffering this never throttles,
	// so we model the bandwidth and latency terms directly.
	for k, j := range jobs {
		lines := inLines(j.QLen, j.TLen)
		rep.InputLines += lines
		issue := chanFree
		chanFree += lines // one line per cycle of channel occupancy
		fetchDone[k] = issue + lines + int64(cfg.AXILatency)
	}

	for k, j := range jobs {
		// Arbiter: earliest-free BSW core.
		best := 0
		for i := 1; i < nBSW; i++ {
			if coreFree[i] < coreFree[best] {
				best = i
			}
		}
		start := coreFree[best]
		if fetchDone[k] > start {
			rep.MemStallCycles += fetchDone[k] - start
			start = fetchDone[k]
		}
		svc := int64(systolic.Latency(cfg.SidedBand, j.QLen, j.TLen))
		finish := start + svc
		coreFree[best] = finish
		rep.BSWBusy += svc

		if j.NeedsEdit && cfg.EditMachines > 0 {
			ei := best / cfg.BSWPerCore
			es := editFree[ei]
			if finish > es {
				es = finish
			}
			ec := cfg.editCycles(j.QLen, j.TLen)
			editFree[ei] = es + ec
			rep.EditBusy += ec
			finish = es + ec
		}
		if j.Rerun {
			rep.Reruns++
		}
		// Output coalescing: every CoalesceRatio results share one
		// writeback line on the channel.
		outPending++
		if outPending == int64(cfg.CoalesceRatio) {
			outPending = 0
			rep.OutputLines++
		}
		if finish > done {
			done = finish
		}
	}
	if outPending > 0 {
		rep.OutputLines++
	}
	return done
}
