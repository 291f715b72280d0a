// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure; DESIGN.md maps each to its experiment). Run with:
//
//	go test -bench=. -benchmem
//
// The bench harness cmd/seedex-bench prints the corresponding rows and
// series; these testing.B entries measure the kernels and pipelines that
// produce them.
package seedex_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"seedex/internal/align"
	"seedex/internal/bench"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/dtw"
	"seedex/internal/editmachine"
	"seedex/internal/ert"
	"seedex/internal/fmindex"
	"seedex/internal/fpga"
	"seedex/internal/genome"
	"seedex/internal/hw"
	"seedex/internal/lcs"
	"seedex/internal/readsim"
	"seedex/internal/systolic"
)

var (
	wlOnce sync.Once
	wl     *bench.Workload
	wlErr  error
)

func workload(b *testing.B) *bench.Workload {
	b.Helper()
	wlOnce.Do(func() {
		wl, wlErr = bench.BuildWorkload(120_000, 500, 1)
	})
	if wlErr != nil {
		b.Fatal(wlErr)
	}
	return wl
}

var (
	wl150Once sync.Once
	wl150     *bench.Workload
	wl150Err  error
)

func workload150(b *testing.B) *bench.Workload {
	b.Helper()
	wl150Once.Do(func() {
		wl150, wl150Err = bench.Workload150(120_000, 400, 1)
	})
	if wl150Err != nil {
		b.Fatal(wl150Err)
	}
	return wl150
}

// BenchmarkFig02BandDistribution measures the used-band computation that
// underlies Figure 2 (binary search for the minimal sufficient band).
func BenchmarkFig02BandDistribution(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.Problems[i%len(w.Problems)]
		align.UsedBand(p.Q, p.T, p.H0, w.Scoring)
	}
}

// BenchmarkFig03BandedKernel measures the software banded kernel at the
// band sizes of Figure 3.
func BenchmarkFig03BandedKernel(b *testing.B) {
	w := workload(b)
	for _, pes := range []int{5, 21, 41, 101} {
		sided := (pes - 1) / 2
		b.Run(fmt.Sprintf("band=%d", pes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := w.Problems[i%len(w.Problems)]
				align.ExtendBanded(p.Q, p.T, p.H0, w.Scoring, sided)
			}
		})
	}
}

// BenchmarkFig04AreaModel exercises the LUT model sweep of Figure 4.
func BenchmarkFig04AreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for pes := 5; pes <= 101; pes += 4 {
			hw.BSWCoreLUT(pes)
		}
	}
}

// BenchmarkFig13CheckedExtension measures one SeedEx extension including
// checks and (rare) rerun — the per-extension cost behind Figure 13's
// zero-difference guarantee.
func BenchmarkFig13CheckedExtension(b *testing.B) {
	w := workload(b)
	se := core.New(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.Problems[i%len(w.Problems)]
		se.Extend(p.Q, p.T, p.H0)
	}
}

// BenchmarkFig14Checks measures the optimality-check workflow alone
// (threshold + E-score + edit machine), per Figure 14's sweep.
func BenchmarkFig14Checks(b *testing.B) {
	w := workload(b)
	for _, mode := range []core.Mode{core.ModePaper, core.ModeStrict} {
		name := "paper"
		if mode == core.ModeStrict {
			name = "strict"
		}
		cfg := core.Config{Band: 20, Scoring: w.Scoring, Kind: core.SemiGlobal, Mode: mode}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := w.Problems[i%len(w.Problems)]
				core.Check(p.Q, p.T, p.H0, cfg)
			}
		})
	}
}

// BenchmarkFig16aAreaComparison evaluates the core-area comparison model.
func BenchmarkFig16aAreaComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = 3 * hw.FullBandCoreLUT(101) / hw.SeedExCoreLUT(41, 3)
	}
}

// BenchmarkFig16bEditMachine measures the edit-machine sweeps of Figure
// 16b: plain relaxed DP versus the 3-bit delta-encoded datapath.
func BenchmarkFig16bEditMachine(b *testing.B) {
	w := workload(b)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := w.Problems[i%len(w.Problems)]
			editmachine.SweepCorner(p.Q, p.T, 20, 50, editmachine.CanonicalRelaxed)
		}
	})
	b.Run("delta3bit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := w.Problems[i%len(w.Problems)]
			if _, err := editmachine.DeltaSweep(p.Q, p.T, 20, 50, editmachine.CanonicalRelaxed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPaperEditCheck times paper mode's edit check on the 150 bp
// jobs that reach it: the whole-region sweep it used to read against the
// goal-directed sweep that stops once score_ed >= score_nb is decided
// (editmachine.CornerReachesWS). cells/op is the region cells computed.
func BenchmarkPaperEditCheck(b *testing.B) {
	w := workload150(b)
	cfg := core.Config{Band: 20, Scoring: w.Scoring, Kind: core.SemiGlobal, Mode: core.ModePaper}
	type edit struct {
		q, t      []byte
		s1, local int
	}
	var jobs []edit
	for _, p := range w.Problems {
		if res, rep := core.Check(p.Q, p.T, p.H0, cfg); rep.EditRan {
			jobs = append(jobs, edit{p.Q, p.T, rep.Th.S1, res.Local})
		}
	}
	if len(jobs) == 0 {
		b.Fatal("no job reaches the edit check")
	}
	ws, rx := editmachine.NewWorkspace(), editmachine.CanonicalRelaxed
	for _, sweep := range []struct {
		name string
		run  func(edit) int64
	}{
		{"whole", func(j edit) int64 { return editmachine.SweepCornerWS(ws, j.q, j.t, cfg.Band, j.s1, rx).Cells }},
		{"goal", func(j edit) int64 {
			return editmachine.CornerReachesWS(ws, j.q, j.t, cfg.Band, j.s1, j.local, rx).Cells
		}},
	} {
		b.Run(sweep.name, func(b *testing.B) {
			var cells int64
			for i := 0; i < b.N; i++ {
				cells += sweep.run(jobs[i%len(jobs)])
			}
			b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
		})
	}
}

// BenchmarkFig16cThroughput runs the FPGA system simulation behind the
// iso-area throughput comparison of Figure 16c.
func BenchmarkFig16cThroughput(b *testing.B) {
	w := workload(b)
	jobs := make([]fpga.Job, len(w.Problems))
	for i, p := range w.Problems {
		jobs[i] = fpga.Job{QLen: len(p.Q), TLen: len(p.T), NeedsEdit: i%3 == 0, Rerun: i%50 == 0}
	}
	for _, cfg := range []struct {
		name string
		c    fpga.Config
	}{
		{"seedex36", fpga.DefaultSeedEx()},
		{"fullband9", fpga.FullBandBaseline()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fpga.Simulate(cfg.c, jobs)
			}
		})
	}
}

// BenchmarkFig17Pipeline measures the end-to-end aligner under the
// extension engines of Figure 17.
func BenchmarkFig17Pipeline(b *testing.B) {
	w := workload(b)
	reads := w.PipelineReads()[:200]
	for _, eng := range []struct {
		name string
		ext  align.Extender
	}{
		{"fullband", core.FullBand{Scoring: w.Scoring}},
		{"seedex-w5", core.New(2)},
		{"seedex-w41", core.New(20)},
	} {
		b.Run(eng.name, func(b *testing.B) {
			a, err := bwamem.New("chrSim", w.Ref, eng.ext)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Run(reads, 0)
			}
		})
	}
}

// BenchmarkFig18KernelThroughput evaluates the ASIC kernel-throughput
// model of Figure 18a.
func BenchmarkFig18KernelThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hw.SeedExASICKernelThroughput(41, 101, 121)
	}
}

// BenchmarkTable2Seeding measures the two seeding substrates of the
// combined image (FM-index SMEMs vs the ERT model).
func BenchmarkTable2Seeding(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ref := genome.Simulate(genome.SimConfig{Length: 200_000}, rng)
	reads := readsim.Simulate(ref, readsim.DefaultConfig(200), rng)
	san := append([]byte(nil), ref...)
	fmindex.Sanitize(san)
	fmIx, err := fmindex.New(san)
	if err != nil {
		b.Fatal(err)
	}
	ertIx := ert.Build(san, ert.K)
	b.Run("fmindex-smem", func(b *testing.B) {
		cfg := fmindex.DefaultSMEMConfig()
		for i := 0; i < b.N; i++ {
			fmIx.SMEMs(reads[i%len(reads)].Seq, cfg)
		}
	})
	b.Run("ert", func(b *testing.B) {
		cfg := ert.DefaultConfig()
		for i := 0; i < b.N; i++ {
			ertIx.Seeds(reads[i%len(reads)].Seq, cfg)
		}
	})
}

// BenchmarkTable3SystolicCore measures the cycle-level systolic simulator
// (the datapath whose constants feed the ASIC model of Table III).
func BenchmarkTable3SystolicCore(b *testing.B) {
	w := workload(b)
	corePE := &systolic.Core{W: 20, Scoring: w.Scoring, SpeculativeRowCut: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.Problems[i%len(w.Problems)]
		corePE.Extend(p.Q, p.T, p.H0)
	}
}

// BenchmarkSMEMSeeding measures the serving SMEM pass: the skip-ahead
// sweep (backward-search window tests, one suffix-array LongestMatch per
// emitted seed).
func BenchmarkSMEMSeeding(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ref := genome.Simulate(genome.SimConfig{Length: 200_000}, rng)
	reads := readsim.Simulate(ref, readsim.DefaultConfig(200), rng)
	san := append([]byte(nil), ref...)
	fmindex.Sanitize(san)
	ix, err := fmindex.New(san)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fmindex.DefaultSMEMConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SMEMs(reads[i%len(reads)].Seq, cfg)
	}
}

// BenchmarkCheckedGlobalFill measures the §VII-D long-read gap-filling
// kernel: checked banded global alignment vs the full-width kernel.
func BenchmarkCheckedGlobalFill(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	sc := align.DefaultScoring()
	type pair struct{ q, t []byte }
	pairs := make([]pair, 64)
	for i := range pairs {
		t := make([]byte, 80+rng.Intn(80))
		for k := range t {
			t[k] = byte(rng.Intn(4))
		}
		q := append([]byte(nil), t...)
		for k := 0; k < len(q)/15; k++ {
			q[rng.Intn(len(q))] = byte(rng.Intn(4))
		}
		pairs[i] = pair{q, t}
	}
	cfg := core.Config{Band: 8, Scoring: sc, Kind: core.Global}
	b.Run("checked-w8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			core.CheckedGlobal(p.q, p.t, 1<<14, cfg)
		}
	})
	b.Run("fullwidth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			align.Global(p.q, p.t, 1<<14, sc)
		}
	})
}

// BenchmarkLinearSpaceAlign measures the Myers-Miller linear-space
// global traceback against the quadratic base DP on mid-size inputs.
func BenchmarkLinearSpaceAlign(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sc := align.DefaultScoring()
	q := make([]byte, 1500)
	for i := range q {
		q[i] = byte(rng.Intn(4))
	}
	t := append([]byte(nil), q...)
	for k := 0; k < 80; k++ {
		t[rng.Intn(len(t))] = byte(rng.Intn(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.GlobalAlign(q, t, sc)
	}
}

// BenchmarkDTWChecked measures the §VII-D DTW transplant: checked banded
// DTW vs full DTW.
func BenchmarkDTWChecked(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, 400)
	y := make([]float64, 400)
	v := 0.0
	for i := range x {
		v += rng.NormFloat64()
		x[i] = v
		y[i] = v + rng.NormFloat64()*0.01
	}
	b.Run("checked-w8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtw.Checked(x, y, 8)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dtw.Full(x, y)
		}
	})
}

// BenchmarkLCSChecked measures the §VII-D LCS transplant.
func BenchmarkLCSChecked(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a := make([]byte, 500)
	for i := range a {
		a[i] = byte(rng.Intn(4))
	}
	bb := append([]byte(nil), a...)
	for k := 0; k < 10; k++ {
		bb[rng.Intn(len(bb))] = byte(rng.Intn(4))
	}
	b.Run("checked-w6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lcs.Checked(a, bb, 6)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lcs.Full(a, bb)
		}
	})
}
