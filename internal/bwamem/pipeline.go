package bwamem

import (
	"runtime"
	"sync"
	"sync/atomic"

	"seedex/internal/sam"
)

// Read is one input read for the pipeline.
type Read struct {
	Name string
	Seq  []byte // base codes
	Qual []byte // ASCII qualities (may be nil)
}

// Stats aggregates one pipeline run (the Figure 17 breakdown source). The
// stage times are sums over Run's blocks of their BatchTimes, so
// SeedingNs + ExtensionNs + RestNs == TotalNs.
type Stats struct {
	Reads      int
	Mapped     int
	Extensions int64
	// TraceSides counts the extension sides traced for the winning
	// candidates, TraceFills those of them that filled DP matrices; the
	// gapless certificate (align.Scoring.Gapless) answered the rest.
	TraceSides  int64
	TraceFills  int64
	SeedingNs   int64 // Start..Seeded: Seeder calls on both strands
	ExtensionNs int64 // Planned..RightDone: job building, extender calls, resolveSide, winners
	RestNs      int64 // chaining (Seeded..Planned) and resolve (RightDone..End: ranking, traceback, SAM)
	TotalNs     int64 // Start..End, summed over blocks: the work's time, not wall-clock
}

// runBlock is how many reads a Run worker maps as one batch: enough
// extensions (about two per read) to fill the extender's SWAR batches.
const runBlock = 16

// Run aligns all reads with the given worker parallelism (0 = GOMAXPROCS),
// mirroring the producer-consumer threading of Figure 12 — each worker
// takes the reads in blocks and maps a block as one batch — and returns
// SAM records in input order plus the stage-time breakdown.
func (a *Aligner) Run(reads []Read, workers int) ([]sam.Record, Stats) {
	recs := make([]sam.Record, len(reads))
	stats := Stats{Reads: len(reads)}
	var mapped, extensions, seedNs, extNs, restNs, totalNs atomic.Int64
	sessions := a.eachBlock(len(reads), runBlock, workers, func(m *Mapper, lo, hi int) {
		blockRecs, als, bt := m.MapBatch(reads[lo:hi])
		copy(recs[lo:hi], blockRecs)
		for _, al := range als {
			if al.Mapped {
				mapped.Add(1)
			}
			extensions.Add(int64(al.Extensions))
		}
		seedNs.Add(int64(bt.Seeded.Sub(bt.Start)))
		extNs.Add(int64(bt.RightDone.Sub(bt.Planned)))
		restNs.Add(int64(bt.Planned.Sub(bt.Seeded) + bt.End.Sub(bt.RightDone)))
		totalNs.Add(int64(bt.End.Sub(bt.Start)))
	})
	for _, m := range sessions {
		stats.TraceSides += int64(m.cp.scratch.traceSides)
		stats.TraceFills += int64(m.cp.scratch.traceFills)
	}
	stats.Mapped = int(mapped.Load())
	stats.Extensions = extensions.Load()
	stats.SeedingNs = seedNs.Load()
	stats.ExtensionNs = extNs.Load()
	stats.RestNs = restNs.Load()
	stats.TotalNs = totalNs.Load()
	return recs, stats
}

// eachBlock hands [0,n) out in blocks of block items to workers goroutines
// (0 = GOMAXPROCS), each mapping on its own Mapper session, and returns the
// sessions once every block is done.
func (a *Aligner) eachBlock(n, block, workers int, do func(m *Mapper, lo, hi int)) []*Mapper {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sessions := make([]*Mapper, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := a.NewMapper()
			sessions[w] = m
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= n {
					return
				}
				do(m, lo, min(lo+block, n))
			}
		}()
	}
	wg.Wait()
	return sessions
}
