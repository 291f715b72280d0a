package bench

import (
	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/editmachine"
	"seedex/internal/fpga"
	"seedex/internal/stats"
)

// AblationEditSeeding compares the two edit-machine seeding strategies:
// the paper's corner seeding with S1 (hardware friendly) versus the
// strict mode's exact boundary seeding, at several bands. It quantifies
// how much pass rate each buys beyond thresholding+E-score.
func AblationEditSeeding(w *Workload, bands []int) *stats.Table {
	t := &stats.Table{Header: []string{"band(PEs)", "no-edit %", "corner(S1) %", "exact-seeded %"}}
	for _, pes := range bands {
		sided := (pes - 1) / 2
		var noEdit, corner, exact float64
		n := float64(len(w.Problems))
		cfg := core.Config{Band: sided, Scoring: w.Scoring, Kind: core.SemiGlobal, Mode: core.ModePaper}
		for _, p := range w.Problems {
			res, rep := core.Check(p.Q, p.T, p.H0, cfg)
			if rep.ThresholdOnlyPass {
				noEdit++
				corner++
				exact++
				continue
			}
			if rep.Outcome == core.FailS1 || rep.Outcome == core.FailE {
				continue
			}
			// Between thresholds with a passing E-check: the edit machine
			// decides. Corner mode's verdict is rep itself.
			if rep.Pass {
				corner++
			}
			sw := editmachine.SweepExact(p.Q, p.T, sided, p.H0, bandBoundaryE(p, w.Scoring, sided), w.Scoring, editmachine.RelaxedFor(w.Scoring))
			if sw.Empty || sw.Score < res.Local {
				exact++
			}
		}
		t.Add(pes, 100*noEdit/n, 100*corner/n, 100*exact/n)
	}
	return t
}

func bandBoundaryE(p Problem, sc align.Scoring, w int) []int {
	_, bd := align.ExtendBanded(p.Q, p.T, p.H0, sc, w)
	return bd.E
}

// AblationClientsPerCluster sweeps the SeedEx clients per memory channel;
// the paper chose 4 "to strike a balance between memory bandwidth and
// area utilization" (§V-A). The sweep shows throughput saturating as the
// channel's bandwidth and the routing budget are consumed.
func AblationClientsPerCluster(w *Workload) *stats.Table {
	jobs := workloadJobs(w)
	t := &stats.Table{Header: []string{"clients/cluster", "M ext/s", "BSW util %", "M ext/s per kLUT"}}
	for _, clients := range []int{1, 2, 4, 6, 8} {
		cfg := fpga.DefaultSeedEx()
		cfg.CoresPerCluster = clients
		rep := fpga.Simulate(cfg, jobs)
		perLUT := rep.ThroughputPerS / 1e6 / (cfg.LUTs() / 1000)
		t.Add(clients, rep.ThroughputPerS/1e6, 100*rep.BSWUtilization, perLUT)
	}
	return t
}

// AblationBSWEditRatio sweeps BSW cores per edit machine; the paper set
// 3:1 because roughly one in three extensions needs the edit machine
// (§VII-A). Larger ratios saturate the edit machine and stall results.
func AblationBSWEditRatio(w *Workload) *stats.Table {
	jobs := workloadJobs(w)
	t := &stats.Table{Header: []string{"BSW:edit", "M ext/s", "edit util %"}}
	for _, ratio := range []int{1, 2, 3, 4, 6} {
		cfg := fpga.DefaultSeedEx()
		cfg.BSWPerCore = ratio
		// Keep the total BSW count comparable.
		cfg.CoresPerCluster = 12 / ratio
		rep := fpga.Simulate(cfg, jobs)
		t.Add(ratio, rep.ThroughputPerS/1e6, 100*rep.EditUtilization)
	}
	return t
}

// AblationBandingStrategies compares extension-result fidelity across
// banding disciplines at equal width: fixed band (no checks), adaptive
// band re-centering (the related-work heuristic of §II), and SeedEx
// (checks + rerun). The SeedEx column is zero by construction.
func AblationBandingStrategies(w *Workload, bands []int) *stats.Table {
	t := &stats.Table{Header: []string{"band(PEs)", "fixed-band diffs", "adaptive diffs", "seedex diffs", "extensions"}}
	for _, pes := range bands {
		sided := (pes - 1) / 2
		fixed, adaptive, seedex := 0, 0, 0
		se := core.New(sided)
		for _, p := range w.Problems {
			full := align.Extend(p.Q, p.T, p.H0, w.Scoring)
			if b, _ := align.ExtendBanded(p.Q, p.T, p.H0, w.Scoring, sided); b.Local != full.Local || b.Global != full.Global {
				fixed++
			}
			if a := align.ExtendAdaptive(p.Q, p.T, p.H0, w.Scoring, sided); a.Local != full.Local || a.Global != full.Global {
				adaptive++
			}
			if s := se.Extend(p.Q, p.T, p.H0); s.Local != full.Local || s.Global != full.Global {
				seedex++
			}
		}
		t.Add(pes, fixed, adaptive, seedex, len(w.Problems))
	}
	return t
}
