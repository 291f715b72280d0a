package bench

import (
	"fmt"

	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/fpga"
	"seedex/internal/hw"
	"seedex/internal/readsim"
	"seedex/internal/stats"
)

// Fig13Workload builds the indel-rich validation workload of Figure 13:
// band sensitivity only shows on reads whose optimal alignments carry
// multi-base indels, so the variant indel rate is raised well above the
// default profile.
func Fig13Workload(refLen, nReads int, seed int64) (*Workload, error) {
	cfg := readsim.RealisticConfig(nReads)
	cfg.IndelRate = 0.004
	return BuildWorkloadCfg(refLen, cfg, seed)
}

// Fig13 reproduces Figure 13: the number of SAM entries that differ from
// the full-band baseline when extensions run on a plain banded heuristic,
// versus the SeedEx algorithm (checks + rerun), as the band sweeps. The
// SeedEx series must be identically zero. The diffs are also scaled to
// entries-per-million-reads, the unit of the paper's y-axis.
func Fig13(w *Workload, bands []int) (*stats.Table, error) {
	full, err := bwamem.New("chrSim", w.Ref, core.FullBand{Scoring: w.Scoring})
	if err != nil {
		return nil, err
	}
	reads := w.PipelineReads()
	wantRecs, _ := full.Run(reads, 0)

	t := &stats.Table{Header: []string{"band(PEs)", "BSW-heuristic diffs", "per-M reads", "SeedEx diffs", "reads"}}
	for _, pes := range bands {
		sided := (pes - 1) / 2
		banded, err := bwamem.New("chrSim", w.Ref, core.Banded{Scoring: w.Scoring, Band: sided})
		if err != nil {
			return nil, err
		}
		banded.Opts.TraceBand = sided
		bRecs, _ := banded.Run(reads, 0)

		se, err := bwamem.New("chrSim", w.Ref, core.New(sided))
		if err != nil {
			return nil, err
		}
		sRecs, _ := se.Run(reads, 0)

		bd, sd := 0, 0
		for i := range wantRecs {
			if bRecs[i].String() != wantRecs[i].String() {
				bd++
			}
			if sRecs[i].String() != wantRecs[i].String() {
				sd++
			}
		}
		t.Add(pes, bd, fmt.Sprintf("%.0f", 1e6*float64(bd)/float64(len(reads))), sd, len(reads))
	}
	return t, nil
}

// Fig14 reproduces Figure 14: optimality-check passing rates versus band
// size — thresholding alone, the full paper workflow, and the strict
// (bit-equivalence) mode.
func Fig14(w *Workload, bands []int) *stats.Table {
	t := &stats.Table{Header: []string{"band(PEs)", "thresholding %", "overall(paper) %", "strict %", "fail-s1 %", "fail-e %", "fail-edit %"}}
	for _, pes := range bands {
		sided := (pes - 1) / 2
		reps := w.CheckOutcomes(sided, core.ModePaper)
		strict := w.CheckOutcomes(sided, core.ModeStrict)
		n := float64(len(reps))
		var th, pass, sPass, fS1, fE, fEd float64
		for _, r := range reps {
			if r.ThresholdOnlyPass {
				th++
			}
			if r.Pass {
				pass++
			}
			switch r.Outcome {
			case core.FailS1:
				fS1++
			case core.FailE:
				fE++
			case core.FailEdit:
				fEd++
			}
		}
		for _, r := range strict {
			if r.Pass {
				sPass++
			}
		}
		t.Add(pes, 100*th/n, 100*pass/n, 100*sPass/n, 100*fS1/n, 100*fE/n, 100*fEd/n)
	}
	return t
}

// Fig16 reproduces Figure 16: (a) full-band vs SeedEx core area, (b) the
// edit-core optimization ladder, and (c) iso-area throughput via the
// system simulator replaying the workload's extension shapes.
func Fig16(w *Workload) (areaTab, ladderTab, thrTab *stats.Table) {
	areaTab = &stats.Table{Header: []string{"core", "LUTs", "ratio"}}
	fb := 3 * hw.FullBandCoreLUT(101)
	se := hw.SeedExCoreLUT(41, 3)
	areaTab.Add("3x full-band BSW (101 PE)", fmt.Sprintf("%.0f", fb), fb/se)
	areaTab.Add("SeedEx core (3x41PE + edit + checks)", fmt.Sprintf("%.0f", se), 1.0)

	ladderTab = &stats.Table{Header: []string{"machine", "LUTs", "reduction vs BSW"}}
	b := hw.BSWCoreLUT(41)
	ladderTab.Add("BSW core (41 PE)", fmt.Sprintf("%.0f", b), 1.0)
	for _, lv := range []struct {
		name string
		l    hw.EditCoreLevel
	}{
		{"edit: reduced scoring (8-bit)", hw.EditNaive},
		{"edit: + delta encoding (3-bit)", hw.EditDelta},
		{"edit: + half-width array", hw.EditHalfWidth},
	} {
		e := hw.EditCoreLUT(41, lv.l)
		ladderTab.Add(lv.name, fmt.Sprintf("%.0f", e), b/e)
	}

	// (c): replay the extension shapes with check outcomes.
	jobs := workloadJobs(w)
	seRep := fpga.Simulate(fpga.DefaultSeedEx(), jobs)
	fbRep := fpga.Simulate(fpga.FullBandBaseline(), jobs)
	thrTab = &stats.Table{Header: []string{"config", "M ext/s", "BSW util %", "speedup"}}
	thrTab.Add("SeedEx (36x41PE, 3 clusters)", seRep.ThroughputPerS/1e6, 100*seRep.BSWUtilization, seRep.ThroughputPerS/fbRep.ThroughputPerS)
	thrTab.Add("Full-band (9x101PE)", fbRep.ThroughputPerS/1e6, 100*fbRep.BSWUtilization, 1.0)
	return
}

// Fig17 reproduces Figure 17: normalized end-to-end time breakdown of the
// aligner under software and accelerated configurations. Software rows
// are measured: each stage's median over the timed rounds of one-worker
// Aligner.Run passes, whose stage times are the blocks' bwamem.BatchTimes;
// a round runs both software configurations, so every round yields one
// speedup per configuration.
// FPGA rows replace the measured stage time with the system simulator's
// wall time for the harvested job stream and its checker outcomes
// (workloadJobs), floored at the host's driver share, and the seeding
// accelerator's published 1.5 M reads/s rate (seeding), as DESIGN.md's
// substitution table records. The speedup is the median of the rounds'
// speedups, beside its interquartile range.
func Fig17(w *Workload) (*stats.Table, error) {
	reads := w.PipelineReads()
	swFull, err := bwamem.New("chrSim", w.Ref, core.FullBand{Scoring: w.Scoring})
	if err != nil {
		return nil, err
	}
	swSeedEx5, err := bwamem.New("chrSim", w.Ref, core.New(2)) // "software SeedEx", w=5 PEs
	if err != nil {
		return nil, err
	}

	// FPGA extension wall time for the harvested job stream.
	fpgaRep := fpga.Simulate(fpga.DefaultSeedEx(), workloadJobs(w))
	fpgaSimNs := float64(fpgaRep.Cycles) * hw.ClockNs
	// Seeding accelerator: 1.5 M reads/s shared seeding+extension rate.
	accSeedNs := float64(len(reads)) / 1.5e6 * 1e9
	names := []string{"BWA-MEM (sw)", "BWA-MEM + sw-SeedEx(w=5)", "BWA-MEM + SeedEx FPGA", "BWA-MEM + Seeding + SeedEx FPGA"}
	// A round's measures: each configuration's seeding, extension and rest
	// ns, then each configuration's speedup over the software baseline.
	round := func() []float64 {
		_, full := swFull.Run(reads, 1)
		_, sx := swSeedEx5.Run(reads, 1)
		// Host still drives the FPGA (batching, DMA, rearrangement).
		fpgaExtNs := max(fpgaSimNs, float64(full.ExtensionNs)/20)
		m := []float64{
			float64(full.SeedingNs), float64(full.ExtensionNs), float64(full.RestNs),
			float64(sx.SeedingNs), float64(sx.ExtensionNs), float64(sx.RestNs),
			float64(full.SeedingNs), fpgaExtNs, float64(full.RestNs),
			accSeedNs, fpgaExtNs, float64(full.RestNs),
		}
		for i := range names {
			m = append(m, (m[0]+m[1]+m[2])/(m[3*i]+m[3*i+1]+m[3*i+2]))
		}
		return m
	}
	s := timeRounds(round)
	stage := func(i, j int) float64 { return median(s[3*i+j]) }
	base := stage(0, 0) + stage(0, 1) + stage(0, 2)
	t := &stats.Table{Header: []string{"config", "seeding %", "extension %", "rest %", "total(norm)", "speedup", "speedup IQR"}}
	for i, name := range names {
		speedup := s[3*len(names)+i]
		t.Add(name,
			100*stage(i, 0)/base,
			100*stage(i, 1)/base,
			100*stage(i, 2)/base,
			(stage(i, 0)+stage(i, 1)+stage(i, 2))/base,
			median(speedup),
			fmt.Sprintf("%.2f–%.2f", stats.Percentile(speedup, 25), stats.Percentile(speedup, 75)))
	}
	return t, nil
}
