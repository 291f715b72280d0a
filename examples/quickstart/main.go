// Quickstart: one seed extension through the SeedEx speculation-and-test
// workflow, narrating every check the paper's Figure 6 describes.
package main

import (
	"fmt"

	"seedex"
)

func main() {
	sc := seedex.DefaultScoring()

	// A 48 bp query flank derived from the reference window with one
	// mismatch and a 2-base deletion — a typical seed extension.
	target := seedex.EncodeBases("ACGTTGCAGGTCAATCCGGAATTCAGGTACCGTTAGCATCAGGATCCATTGCAA")
	query := seedex.EncodeBases("ACGTTGCAGGTCAATCCGGAATTGAGGTACCGTTGCATCAGGATCCATTG")
	h0 := 40 // accumulated seed score

	fmt.Println("SeedEx quickstart")
	fmt.Printf("query  (%3d bp): %s\n", len(query), seedex.DecodeBases(query))
	fmt.Printf("target (%3d bp): %s\n", len(target), seedex.DecodeBases(target))
	fmt.Printf("seed score h0 = %d, scoring {m:%d, x:-%d, go:-%d, ge:-%d}\n\n",
		h0, sc.Match, sc.Mismatch, sc.GapOpen, sc.GapExtend)

	// The check workflow at two bands: a too-narrow band that fails its
	// proof (and would be rerun on the host), then a band whose result is
	// proven optimal.
	full := seedex.Extend(query, target, h0, sc)
	for _, w := range []int{5, 12} {
		th := seedex.ComputeThresholds(len(query), h0, w, sc)
		fmt.Printf("band w=%d  ->  S1=%d (above-band bound), S2=%d (below-band bound)\n", w, th.S1, th.S2)
		res, rep := seedex.Check(query, target, h0, seedex.CheckConfig{
			Band: w, Scoring: sc, Mode: seedex.ModeStrict,
		})
		fmt.Printf("  narrow-band score: local=%d global=%d\n", res.Local, res.Global)
		if rep.ERan {
			fmt.Printf("  E-score check: score_maxE=%d (live crossing: %v)\n", rep.ScoreMaxE, rep.ELive)
		}
		if rep.EditRan {
			// Strict mode evaluates the below-band region bound in closed
			// form (h0 - go - (w+1)*ge + n*match); no edit sweep runs.
			fmt.Printf("  edit-distance check: below-band bound=%d (closed form, no sweep)\n", rep.ScoreEd)
		}
		verdict := "optimality PROVEN — no path outside the band can score higher"
		if !rep.Pass {
			verdict = "proof failed — the extension is rerun with the full band on the host"
		}
		fmt.Printf("  outcome: %v -> %s\n\n", rep.Outcome, verdict)
	}

	// The production path hides all of this behind one call whose result
	// is always bit-equal to the full-band reference.
	fmt.Printf("full-band reference: local=%d global=%d\n", full.Local, full.Global)
	ext := seedex.NewExtender(5)
	out := ext.Extend(query, target, h0)
	fmt.Printf("speculative extender: local=%d global=%d (bit-equal: %v)\n",
		out.Local, out.Global, out.Local == full.Local && out.Global == full.Global)
	fmt.Printf("%v\n", ext.Stats)
}
