// Command seedex-bench regenerates every table and figure of the paper's
// evaluation section (see the experiment index in DESIGN.md).
//
// Usage:
//
//	seedex-bench -fig all
//	seedex-bench -fig 14 -reads 2000 -ref 200000
//	seedex-bench -fig 16 -seed 42
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"seedex/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "seedex-bench:", err)
		os.Exit(1)
	}
}

// figures is every value -fig accepts. 'all' covers the paper's figures,
// tables and the ablations; extend and map write a history file and are
// only run when named.
var figures = []string{"2", "3", "4", "13", "14", "15", "16", "17", "18",
	"t2", "table2", "t3", "table3", "ablations", "extend", "map", "all"}

var figList = strings.Join(figures, ",")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("seedex-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure/table to regenerate, comma-separated: "+figList)
	refLen := fs.Int("ref", 200_000, "synthetic reference length (bp)")
	nReads := fs.Int("reads", 1000, "simulated read count")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	workers := fs.Int("workers", 0, "pipeline workers (0 = GOMAXPROCS)")
	extendJSON := fs.String("extend-json", "BENCH_extend.json", "output path for the extension kernel benchmark (-fig extend)")
	extendBand := fs.Int("extend-band", 21, "one-sided band for the checked paths of -fig extend")
	extendRounds := fs.Int("extend-rounds", 3, "timing rounds per kernel for -fig extend")
	extendReadLen := fs.Int("extend-readlen", 150, "read length for -fig extend: 150 (standard trajectory) or 100 (8-bit SWAR tier dominates)")
	extendPR := fs.String("extend-pr", "dev", "label recorded with the appended -fig extend run (the PR it measures)")
	mapJSON := fs.String("map-json", "BENCH_map.json", "output path for the map-path stage benchmark (-fig map)")
	mapPR := fs.String("map-pr", "dev", "label recorded with the appended -fig map run (the PR it measures)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figures, f) {
			return fmt.Errorf("unknown -fig entry %q (valid: %s)", f, figList)
		}
		want[f] = true
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "seedex-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "seedex-bench: memprofile:", err)
			}
		}()
	}

	all := want["all"]
	needWorkload := all || want["2"] || want["3"] || want["14"] || want["16"] || want["17"] || want["ablations"]

	var w *bench.Workload
	if needWorkload {
		fmt.Fprintf(stderr, "building workload: %d bp reference, %d reads (seed %d)...\n", *refLen, *nReads, *seed)
		var err error
		w, err = bench.BuildWorkload(*refLen, *nReads, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "harvested %d seed extensions (%.1f per read)\n\n",
			len(w.Problems), float64(len(w.Problems))/float64(*nReads))
	}

	section := func(title string) { fmt.Fprintf(stdout, "== %s ==\n", title) }

	if all || want["2"] {
		section("Figure 2: band distribution (estimated vs used)")
		t, _, _ := bench.Fig02(w)
		fmt.Fprintln(stdout, t)
	}
	if all || want["3"] {
		section("Figure 3: band vs software kernel execution time")
		fmt.Fprintln(stdout, bench.Fig03(w, []int{5, 11, 21, 41, 61, 81, 101}, 2000))
	}
	if all || want["4"] {
		section("Figure 4: band vs modeled hardware resources")
		fmt.Fprintln(stdout, bench.Fig04([]int{5, 11, 21, 41, 61, 81, 101}))
	}
	if all || want["13"] {
		section("Figure 13: output differences vs band (BSW heuristic vs SeedEx)")
		fmt.Fprintln(stderr, "building indel-rich Figure 13 workload...")
		w13, err := bench.Fig13Workload(*refLen, *nReads, *seed)
		if err != nil {
			return err
		}
		t, err := bench.Fig13(w13, []int{3, 5, 11, 21, 41, 81})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t)
	}
	if all || want["14"] {
		section("Figure 14: optimality-check passing rates vs band")
		fmt.Fprintln(stdout, bench.Fig14(w, []int{5, 11, 21, 31, 41, 61, 81, 101}))
	}
	if all || want["15"] {
		section("Figure 15: SeedEx FPGA LUT breakdown")
		fmt.Fprintln(stdout, bench.Fig15())
	}
	if all || want["t2"] || want["table2"] {
		section("Table II: seeding + SeedEx resource utilization")
		fmt.Fprintln(stdout, bench.Table2())
	}
	if all || want["16"] {
		section("Figure 16: area and iso-area throughput")
		a, l, c := bench.Fig16(w)
		fmt.Fprintln(stdout, a)
		fmt.Fprintln(stdout, l)
		fmt.Fprintln(stdout, c)
	}
	if all || want["17"] {
		section("Figure 17: end-to-end time breakdown")
		t, err := bench.Fig17(w, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t)
	}
	if all || want["t3"] || want["table3"] {
		section("Table III: ASIC SeedEx area and power")
		fmt.Fprintln(stdout, bench.Table3())
	}
	if all || want["18"] {
		section("Figure 18: ASIC comparator bars")
		fmt.Fprintln(stdout, bench.Fig18())
	}
	if want["extend"] { // not part of 'all': it writes a file and takes timing-quality minutes
		section(fmt.Sprintf("Extension kernel benchmark (%d bp workload)", *extendReadLen))
		fmt.Fprintf(stderr, "building %d bp workload: %d bp reference, %d reads (seed %d)...\n", *extendReadLen, *refLen, *nReads, *seed)
		build := bench.Workload150
		if *extendReadLen == 100 {
			build = bench.Workload100
		}
		wext, err := build(*refLen, *nReads, *seed)
		if err != nil {
			return err
		}
		rep := bench.ExtendBench(wext, *extendBand, *extendRounds)
		fmt.Fprintln(stdout, rep)
		// BENCH_extend.json is an append-only history: each invocation adds
		// one labeled run, so the file carries the perf trajectory across
		// PRs instead of only the most recent snapshot.
		hist, err := bench.ReadExtendHistory(*extendJSON)
		if err != nil {
			return err
		}
		hist.Runs = append(hist.Runs, bench.ExtendRun{PR: *extendPR, ExtendBenchReport: rep})
		data, err := hist.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*extendJSON, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s (%d runs)\n", *extendJSON, len(hist.Runs))
	}
	if want["map"] { // not part of 'all': it writes a file
		section("Map path: per-stage time of a mapped read (150 bp workload, strict SeedEx)")
		fmt.Fprintf(stderr, "building 150 bp workload: %d bp reference, %d reads (seed %d)...\n", *refLen, *nReads, *seed)
		wmap, err := bench.Workload150(*refLen, *nReads, *seed)
		if err != nil {
			return err
		}
		rep, err := bench.MapPathBench(wmap, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
		// BENCH_map.json is an append-only history like BENCH_extend.json.
		runs, err := bench.AppendMapPathRun(*mapJSON, *mapPR, rep)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s (%d runs)\n", *mapJSON, runs)
	}
	if all || want["ablations"] {
		section("Ablation: edit-machine seeding strategy")
		fmt.Fprintln(stdout, bench.AblationEditSeeding(w, []int{11, 21, 41}))
		section("Ablation: SeedEx clients per memory channel (paper: 4)")
		fmt.Fprintln(stdout, bench.AblationClientsPerCluster(w))
		section("Ablation: banding strategies (fixed / adaptive / SeedEx)")
		fmt.Fprintln(stdout, bench.AblationBandingStrategies(w, []int{5, 21, 41}))
		section("Ablation: BSW cores per edit machine (paper: 3)")
		fmt.Fprintln(stdout, bench.AblationBSWEditRatio(w))
	}
	return nil
}
