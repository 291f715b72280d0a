package bench

import (
	"fmt"

	"seedex/internal/align"
	"seedex/internal/hw"
	"seedex/internal/stats"
)

// Fig02 reproduces Figure 2: the distribution of the band BWA-MEM
// estimates a priori versus the band each extension actually needs
// (measured as the smallest band reproducing the full result).
func Fig02(w *Workload) (*stats.Table, *stats.Histogram, *stats.Histogram) {
	est := stats.NewHistogram(10, 20, 30, 40)
	used := stats.NewHistogram(10, 20, 30, 40)
	for _, p := range w.Problems {
		// BWA's a-priori estimate considers only the query length (the
		// seed score does not extend the worst-case gap allowance).
		est.Add(w.Scoring.EstimateBand(len(p.Q), 0, 100))
		used.Add(align.UsedBand(p.Q, p.T, p.H0, w.Scoring))
	}
	t := &stats.Table{Header: append([]string{"band"}, est.Labels()...)}
	rowE := []interface{}{"Estimated %"}
	rowU := []interface{}{"Used %"}
	for i := range est.Counts {
		rowE = append(rowE, est.Pct(i))
		rowU = append(rowU, used.Pct(i))
	}
	t.Add(rowE...)
	t.Add(rowU...)
	return t, est, used
}

// Fig03 reproduces Figure 3: banded software-kernel execution time versus
// band size (the early-termination saturation curve): each band's median
// ns per extension and its range over the timed rounds, the exact cells
// per extension, and the median time relative to the first band's.
func Fig03(w *Workload, bands []int, sample int) *stats.Table {
	probs := w.Problems
	if sample > 0 && len(probs) > sample {
		probs = probs[:sample]
	}
	sweeps := make([]func() int64, len(bands))
	rows := make([]func() []float64, len(bands))
	for i, pes := range bands {
		sided := (pes - 1) / 2
		sweeps[i] = scalarSweep(probs, func(p Problem) int64 {
			res, _ := align.ExtendBanded(p.Q, p.T, p.H0, w.Scoring, sided)
			return res.Cells
		})
		rows[i] = perOp(len(probs), sweeps[i])
	}
	ns := timeRounds(rows...)
	t := &stats.Table{Header: []string{"band(PEs)", "ns/ext", "range", "cells/ext", "rel-time"}}
	for i, pes := range bands {
		t.Add(pes, median(ns[i]), fmt.Sprintf("%.0f–%.0f", ns[i][0], ns[i][rounds-1]),
			float64(sweeps[i]())/float64(len(probs)), median(ns[i])/median(ns[0]))
	}
	return t
}

// Fig04 reproduces Figure 4: modeled hardware resources of a BSW
// accelerator versus band size, normalized to the smallest band.
func Fig04(bands []int) *stats.Table {
	t := &stats.Table{Header: []string{"band(PEs)", "LUTs", "normalized"}}
	base := hw.BSWCoreLUT(bands[0])
	for _, pes := range bands {
		l := hw.BSWCoreLUT(pes)
		t.Add(pes, fmt.Sprintf("%.0f", l), l/base)
	}
	return t
}

// Fig15 reproduces Figure 15: the LUT breakdown of a SeedEx-only FPGA
// image with four SeedEx cores.
func Fig15() *stats.Table {
	t := &stats.Table{Header: []string{"component", "LUTs", "% of VU9P"}}
	rows := hw.SeedExFPGABreakdown(41, 4)
	for _, r := range rows {
		t.Add(r.Name, fmt.Sprintf("%.0f", r.LUT), r.Pct())
	}
	t.Add("Total", fmt.Sprintf("%.0f", hw.TotalLUT(rows)), 100*hw.TotalLUT(rows)/hw.VU9PLUTs)
	return t
}

// Table2 reproduces Table II: resource utilization of the combined
// seeding + SeedEx image.
func Table2() *stats.Table {
	t := &stats.Table{Header: []string{"component", "LUTs", "LUT %"}}
	rows := hw.CombinedImageBreakdown(41)
	for _, r := range rows {
		t.Add(r.Name, fmt.Sprintf("%.0f", r.LUT), r.Pct())
	}
	t.Add("Total", fmt.Sprintf("%.0f", hw.TotalLUT(rows)), 100*hw.TotalLUT(rows)/hw.VU9PLUTs)
	return t
}

// Table3 reproduces Table III: area and power of the ASIC SeedEx.
func Table3() *stats.Table {
	t := &stats.Table{Header: []string{"component", "config", "area mm2", "power mW"}}
	for _, c := range hw.SeedExASIC() {
		t.Add(c.Name, c.Config, fmt.Sprintf("%.3f", c.AreaMM2), fmt.Sprintf("%.1f", c.PowerMW))
	}
	sa, sp := hw.ASICTotals(hw.SeedExASIC())
	t.Add("SeedEx Total", "", fmt.Sprintf("%.3f", sa), fmt.Sprintf("%.1f", sp))
	e := hw.ERTASIC()
	t.Add(e.Name, e.Config, fmt.Sprintf("%.2f", e.AreaMM2), fmt.Sprintf("%.1f", e.PowerMW))
	ta, tp := hw.ASICTotals(append(hw.SeedExASIC(), e))
	t.Add("Total", "", fmt.Sprintf("%.2f", ta), fmt.Sprintf("%.1f", tp))
	return t
}

// Fig18 reproduces Figure 18: area-normalized kernel throughput,
// application throughput and energy efficiency across systems.
func Fig18() *stats.Table {
	t := &stats.Table{Header: []string{"system", "kernel K ext/s/mm2", "app K reads/s/mm2", "K reads/s/J"}}
	for _, c := range hw.Figure18(41, 101, 121) {
		t.Add(c.Name,
			fmt.Sprintf("%.2f", c.KernelThroughput),
			fmt.Sprintf("%.2f", c.AppThroughput),
			fmt.Sprintf("%.2f", c.EnergyEff))
	}
	return t
}
