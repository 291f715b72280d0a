package bwamem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seedex/internal/align"
	"seedex/internal/chain"
	"seedex/internal/sam"
)

// Read is one input read for the pipeline.
type Read struct {
	Name string
	Seq  []byte // base codes
	Qual []byte // ASCII qualities (may be nil)
}

// Stats aggregates one pipeline run (the Figure 17 breakdown source).
type Stats struct {
	Reads      int
	Mapped     int
	Extensions int64
	// TraceSides counts the extension sides traced for the winning
	// candidates, TraceFills those of them that filled DP matrices; the
	// gapless certificate (align.Scoring.Gapless) answered the rest.
	TraceSides  int64
	TraceFills  int64
	SeedingNs   int64 // Seeder calls; chaining is in RestNs
	ExtensionNs int64 // extender calls
	RestNs      int64 // everything else (candidate resolution, traceback, SAM)
	TotalNs     int64 // wall-clock across workers (sum of per-block times)
}

// runBlock is how many reads a Run worker maps as one batch: enough
// extensions (about two per read) to fill the extender's SWAR batches.
const runBlock = 16

// Run aligns all reads with the given worker parallelism (0 = GOMAXPROCS),
// mirroring the producer-consumer threading of Figure 12 — each worker
// takes the reads in blocks and maps a block as one batch — and returns
// SAM records in input order plus the stage-time breakdown.
func (a *Aligner) Run(reads []Read, workers int) ([]sam.Record, Stats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	recs := make([]sam.Record, len(reads))
	var stats Stats
	stats.Reads = len(reads)
	var mapped, extensions, traceSides, traceFills, seedNs, extNs, restNs, totalNs atomic.Int64

	var next atomic.Int64
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker mapping session whose seeder and extender carry
			// timing probes, built once, not once per block.
			m, probe := a.newTimedMapper()
			defer func() {
				traceSides.Add(int64(m.cp.scratch.traceSides))
				traceFills.Add(int64(m.cp.scratch.traceFills))
			}()
			for {
				lo := int(next.Add(runBlock)) - runBlock
				if lo >= len(reads) {
					return
				}
				hi := min(lo+runBlock, len(reads))
				probe.seedNs, probe.extNs = 0, 0
				t0 := time.Now()
				blockRecs, als, _ := m.MapBatch(reads[lo:hi])
				copy(recs[lo:hi], blockRecs)
				total := time.Since(t0).Nanoseconds()
				for _, al := range als {
					if al.Mapped {
						mapped.Add(1)
					}
					extensions.Add(int64(al.Extensions))
				}
				seedNs.Add(probe.seedNs)
				extNs.Add(probe.extNs)
				totalNs.Add(total)
				restNs.Add(total - probe.seedNs - probe.extNs)
			}
		}()
	}
	wg.Wait()
	stats.Mapped = int(mapped.Load())
	stats.Extensions = extensions.Load()
	stats.TraceSides = traceSides.Load()
	stats.TraceFills = traceFills.Load()
	stats.SeedingNs = seedNs.Load()
	stats.ExtensionNs = extNs.Load()
	stats.RestNs = restNs.Load()
	stats.TotalNs = totalNs.Load()
	return recs, stats
}

// newTimedMapper is NewMapper with the session's seeder and extender
// wrapped in timing probes for Run's per-stage attribution. The shared
// aligner is never mutated.
func (a *Aligner) newTimedMapper() (*Mapper, *stageProbe) {
	probe := &stageProbe{}
	m := a.NewMapper()
	m.cp.Seeder = &timedSeeder{a.Seeder, probe}
	m.cp.Extender = &timedExtenderProbe{inner: m.cp.Extender, probe: probe}
	return m, probe
}

type stageProbe struct {
	seedNs, extNs int64 // per-block, single goroutine: no atomics needed
}

type timedSeeder struct {
	inner Seeder
	probe *stageProbe
}

func (ts *timedSeeder) Seeds(q []byte) []chain.Seed {
	start := time.Now()
	s := ts.inner.Seeds(q)
	ts.probe.seedNs += time.Since(start).Nanoseconds()
	return s
}

type timedExtenderProbe struct {
	inner align.Extender
	probe *stageProbe
}

func (te *timedExtenderProbe) Extend(q, t []byte, h0 int) align.ExtendResult {
	start := time.Now()
	res := te.inner.Extend(q, t, h0)
	te.probe.extNs += time.Since(start).Nanoseconds()
	return res
}

// ExtendJobs keeps the per-worker extender batch-capable through the
// timing wrapper.
func (te *timedExtenderProbe) ExtendJobs(jobs []align.Job, dst []align.ExtendResult) []align.ExtendResult {
	start := time.Now()
	dst = align.ExtendJobs(te.inner, jobs, dst)
	te.probe.extNs += time.Since(start).Nanoseconds()
	return dst
}

var _ align.BatchExtender = (*timedExtenderProbe)(nil)
