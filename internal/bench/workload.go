// Package bench regenerates every table and figure of the paper's
// evaluation (see the experiment index in DESIGN.md): one generator per
// artifact, shared by cmd/seedex-bench and the repository's benchmarks.
package bench

import (
	"math/rand"
	"sync"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/fpga"
	"seedex/internal/genome"
	"seedex/internal/readsim"
)

// Problem is one seed-extension instance harvested from the pipeline.
type Problem struct {
	Q, T []byte
	H0   int
}

// Workload is a reproducible corpus: a synthetic genome, simulated reads,
// and the actual extension problems the aligner dispatches for them.
type Workload struct {
	Ref      []byte
	Reads    []readsim.Read
	Problems []Problem
	Scoring  align.Scoring
}

// captureExtender records every extension subproblem while delegating to
// the full-band reference kernel.
type captureExtender struct {
	sc   align.Scoring
	mu   sync.Mutex
	prob []Problem
}

func (c *captureExtender) Extend(q, t []byte, h0 int) align.ExtendResult {
	c.mu.Lock()
	c.prob = append(c.prob, Problem{Q: append([]byte(nil), q...), T: append([]byte(nil), t...), H0: h0})
	c.mu.Unlock()
	return align.Extend(q, t, h0, c.sc)
}

// BuildWorkload simulates a genome of refLen with nReads 101 bp reads
// (realistic error profile, including garbage tails) and harvests the
// extension problems by running the aligner's seeding and extension
// stages with the reference kernel. The harvest maps with one worker, so
// the problems' order (the order the FPGA replays take) depends on the
// seed alone, not on GOMAXPROCS.
func BuildWorkload(refLen, nReads int, seed int64) (*Workload, error) {
	return BuildWorkloadCfg(refLen, readsim.RealisticConfig(nReads), seed)
}

// BuildWorkloadCfg is BuildWorkload with an explicit read-simulation
// configuration.
func BuildWorkloadCfg(refLen int, cfg readsim.Config, seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Simulate(genome.SimConfig{Length: refLen, RepeatFraction: 0.05}, rng)
	reads := readsim.Simulate(ref, cfg, rng)
	cap := &captureExtender{sc: align.DefaultScoring()}
	a, err := bwamem.New("chrSim", ref, cap)
	if err != nil {
		return nil, err
	}
	pr := make([]bwamem.Read, len(reads))
	for i, r := range reads {
		pr[i] = bwamem.Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual}
	}
	a.Run(pr, 1)
	return &Workload{Ref: ref, Reads: reads, Problems: cap.prob, Scoring: cap.sc}, nil
}

// PipelineReads converts the workload's reads for bwamem.Run.
func (w *Workload) PipelineReads() []bwamem.Read {
	out := make([]bwamem.Read, len(w.Reads))
	for i, r := range w.Reads {
		out[i] = bwamem.Read{Name: r.ID, Seq: r.Seq, Qual: r.Qual}
	}
	return out
}

// CheckOutcomes runs the ModePaper checker at one-sided band w over all
// problems and returns per-problem reports.
func (w *Workload) CheckOutcomes(band int, mode core.Mode) []core.Report {
	cfg := core.Config{Band: band, Scoring: w.Scoring, Kind: core.SemiGlobal, Mode: mode}
	out := make([]core.Report, len(w.Problems))
	for i, p := range w.Problems {
		_, out[i] = core.Check(p.Q, p.T, p.H0, cfg)
	}
	return out
}

// workloadJobs is the one job stream every FPGA replay takes (Fig 16c,
// Fig 17 and the system ablations): the harvested problems in harvest
// order, each with the checker's real paper-mode outcome at the paper's
// band (w = 20, 41 PEs).
func workloadJobs(w *Workload) []fpga.Job {
	reps := w.CheckOutcomes(20, core.ModePaper)
	jobs := make([]fpga.Job, len(w.Problems))
	for i, p := range w.Problems {
		jobs[i] = fpga.Job{QLen: len(p.Q), TLen: len(p.T), NeedsEdit: reps[i].EditRan, Rerun: !reps[i].Pass}
	}
	return jobs
}
