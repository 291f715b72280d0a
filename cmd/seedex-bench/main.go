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
	"strings"
	"time"

	"seedex/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "seedex-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("seedex-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure/table to regenerate: 2,3,4,13,14,15,16,17,18,t2,t3,extend,serve,map or 'all'")
	refLen := fs.Int("ref", 200_000, "synthetic reference length (bp)")
	nReads := fs.Int("reads", 1000, "simulated read count")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	workers := fs.Int("workers", 0, "pipeline workers (0 = GOMAXPROCS)")
	extendJSON := fs.String("extend-json", "BENCH_extend.json", "output path for the extension kernel benchmark (-fig extend)")
	extendBand := fs.Int("extend-band", 21, "one-sided band for the checked paths of -fig extend")
	extendRounds := fs.Int("extend-rounds", 3, "timing rounds per kernel for -fig extend")
	extendReadLen := fs.Int("extend-readlen", 150, "read length for -fig extend: 150 (standard trajectory) or 100 (8-bit SWAR tier dominates)")
	extendPR := fs.String("extend-pr", "dev", "label recorded with the appended -fig extend run (the PR it measures)")
	extendBaseline := fs.String("extend-baseline", "", "history file to regression-check the -fig extend run against: error when banded/batch cells/s drops more than -extend-tolerance below the baseline's latest same-read-length run")
	extendTolerance := fs.Float64("extend-tolerance", 0.10, "fractional banded/batch throughput drop tolerated by -extend-baseline")
	mapJSON := fs.String("map-json", "BENCH_map.json", "output path for the map-path stage benchmark (-fig map)")
	mapPR := fs.String("map-pr", "dev", "label recorded with the appended -fig map run (the PR it measures)")
	serveJSON := fs.String("serve-json", "BENCH_serve.json", "output path for the alignment-service benchmark (-fig serve)")
	serveDur := fs.Duration("serve-dur", time.Second, "measurement window per concurrency point for -fig serve")
	serveConc := fs.String("serve-conc", "4,16,32,64", "comma-separated client concurrencies for -fig serve")
	serveJobs := fs.Int("serve-jobs", 8, "jobs per request for -fig serve")
	serveStrict := fs.Bool("serve-strict", false, "serve ModeStrict (bit-identical checks) instead of the paper workflow for -fig serve")
	serveBatch := fs.Int("serve-batch", 64, "micro-batch size for the batched -fig serve configuration")
	serveFlush := fs.Duration("serve-flush", 100*time.Microsecond, "micro-batch flush interval for -fig serve")
	serveTrace := fs.Int("serve-trace", 100, "trace sample rate for the batched-traced -fig serve configuration (1 in N requests; negative skips the traced configuration)")
	servePR := fs.String("serve-pr", "dev", "label recorded with the appended -fig serve run (the PR it measures)")
	serveShards := fs.String("serve-shards", "2,4,8", "comma-separated shard counts for the sharded -fig serve configurations ('batched' is the 1-shard point; empty skips the curve)")
	servePolicy := fs.String("serve-policy", "least-loaded", "routing policy for the sharded -fig serve configurations")
	prefilter := fs.Bool("prefilter", false, "for -fig serve: also benchmark the /v1/map path with the pre-alignment filter tier on vs off (equivalence-checked; recorded under 'prefilter' in the run entry)")
	prefilterTh := fs.Float64("prefilter-threshold", 0, "prefilter edit threshold as a fraction of read length for -prefilter (0 = default)")
	indexBench := fs.Bool("index-bench", false, "for -fig serve: also benchmark the reference index lifecycle — container build/publish/load/warmup time and mmap-served /v1/map throughput under a hot-reload storm (recorded under 'index' in the run entry)")
	chaos := fs.Float64("chaos", 0, "for -fig serve: serve through the simulated FPGA device with every fault class injecting at this rate (measures the throughput cost of fault tolerance)")
	chaosSeed := fs.Int64("chaos-seed", 1, "deterministic seed for -chaos fault draws")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
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

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
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
		if *extendBaseline != "" {
			if err := regressCheck(rep, *extendBaseline, *extendTolerance, stderr); err != nil {
				return err
			}
		}
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
	if want["serve"] { // not part of 'all': it writes a file and load-tests for seconds
		section("Alignment service: micro-batched vs unbatched throughput")
		fmt.Fprintf(stderr, "building 150 bp workload: %d bp reference, %d reads (seed %d)...\n", *refLen, *nReads, *seed)
		wsrv, err := bench.Workload150(*refLen, *nReads, *seed)
		if err != nil {
			return err
		}
		var concs []int
		for _, f := range strings.Split(*serveConc, ",") {
			var c int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &c); err != nil || c <= 0 {
				return fmt.Errorf("bad -serve-conc entry %q", f)
			}
			concs = append(concs, c)
		}
		var shardCounts []int
		for _, f := range strings.Split(*serveShards, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			var n int
			if _, err := fmt.Sscanf(f, "%d", &n); err != nil || n <= 0 {
				return fmt.Errorf("bad -serve-shards entry %q", f)
			}
			if n > 1 {
				shardCounts = append(shardCounts, n)
			}
		}
		rep := bench.ServeBench(wsrv, bench.ServeBenchConfig{
			MaxBatch:       *serveBatch,
			Flush:          *serveFlush,
			Strict:         *serveStrict,
			JobsPerRequest: *serveJobs,
			Concurrency:    concs,
			Duration:       *serveDur,
			ChaosRate:      *chaos,
			ChaosSeed:      *chaosSeed,
			TraceSample:    *serveTrace,
			Shards:         shardCounts,
			RoutePolicy:    *servePolicy,
		})
		fmt.Fprintln(stdout, rep)
		if *prefilter {
			section("Pre-alignment filter tier: /v1/map throughput, filter on vs off")
			fmt.Fprintln(stderr, "building repeat+decoy mapping workload and equivalence corpus...")
			mrep, err := bench.MapServeBench(bench.MapBenchConfig{
				Threshold:   *prefilterTh,
				Concurrency: concs,
				Duration:    *serveDur,
				Seed:        *seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, mrep)
			rep.Prefilter = &mrep
		}
		if *indexBench {
			section("Reference index lifecycle: build/publish/load/warmup and mmap-served /v1/map")
			fmt.Fprintf(stderr, "building %d bp reference container and mapping workload (seed %d)...\n", *refLen, *seed)
			irep, err := bench.IndexServeBench(bench.IndexBenchConfig{
				RefLen:      *refLen,
				Concurrency: concs,
				Duration:    *serveDur,
				Seed:        *seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, irep)
			rep.Index = &irep
		}
		// BENCH_serve.json is an append-only history like BENCH_extend.json:
		// each invocation adds one labeled run (a legacy single-report file
		// converts in place, keeping its measurement as the first point).
		hist, err := bench.ReadServeHistory(*serveJSON)
		if err != nil {
			return err
		}
		hist.Runs = append(hist.Runs, bench.ServeRun{PR: *servePR, ServeBenchReport: rep})
		data, err := hist.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*serveJSON, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s (%d runs)\n", *serveJSON, len(hist.Runs))
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

// regressCheck compares the fresh run's banded/batch throughput against
// the latest same-read-length run of the baseline history (the committed
// BENCH_extend.json in CI) and errors when it dropped by more than the
// tolerated fraction. The hot-path batch kernel is the one row whose
// regressions matter release-to-release; everything else in the report is
// context.
func regressCheck(rep bench.ExtendBenchReport, baselinePath string, tolerance float64, stderr io.Writer) error {
	base, err := bench.ReadExtendHistory(baselinePath)
	if err != nil {
		return fmt.Errorf("regression baseline: %w", err)
	}
	prev := base.LatestFor(rep.ReadLen)
	if prev == nil {
		fmt.Fprintf(stderr, "regression check: no %d bp baseline run in %s, skipping\n", rep.ReadLen, baselinePath)
		return nil
	}
	const row = "banded/batch"
	got, want := rep.Kernel(row), prev.Kernel(row)
	if got == nil || want == nil {
		return fmt.Errorf("regression check: kernel %q missing (run has it: %v, baseline %s/%s has it: %v)",
			row, got != nil, baselinePath, prev.PR, want != nil)
	}
	floor := want.CellsPerSec * (1 - tolerance)
	if got.CellsPerSec < floor {
		return fmt.Errorf("regression: %s %.3e cells/s is %.1f%% below baseline %.3e (run %q), tolerance %.0f%%",
			row, got.CellsPerSec, 100*(1-got.CellsPerSec/want.CellsPerSec), want.CellsPerSec, prev.PR, 100*tolerance)
	}
	fmt.Fprintf(stderr, "regression check: %s %.3e cells/s vs baseline %.3e (run %q): ok\n",
		row, got.CellsPerSec, want.CellsPerSec, prev.PR)
	return nil
}
