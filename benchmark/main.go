// Command benchmark is the repository's benchmark: four served workloads
// against the real seedex-serve daemon, checked against a full-band
// oracle, with end-to-end metrics (-trace 0) and a per-layer budget
// (-trace 1). See README.md; BENCHMARK.json at the repository root is the
// contract the driver runs it under.
//
//	go run -C benchmark .                       every workload, both kinds of run
//	go run -C benchmark . -workload map_reads -seed 7 -seconds 12 -trace 0
//	go run -C benchmark . compare A.jsonl B.jsonl
//
// Linux only: it reads /proc for the daemon's CPU time and peak RSS.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	benchmarkFilePath = "../BENCHMARK.json"
	outDir            = "out"
	// setupRepeats is how often an end-to-end run sets the program up; it
	// reports the median and measures against the last daemon.
	setupRepeats = 3
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "master seed: every generated input follows from it")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "both", "0 = end-to-end run, 1 = traced run with the per-layer metrics, both = one after the other")
	out := fs.String("out", filepath.Join(outDir, "results.jsonl"), "append one JSON record per run here (input of compare)")
	fs.Parse(os.Args[1:])

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, *workloadName, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, workloadName string, seed int64, seconds int, trace, out string) error {
	if seconds <= 0 {
		bf, err := loadBenchmarkFile(benchmarkFilePath)
		if err != nil {
			return err
		}
		seconds = bf.RunSeconds
	}
	run := specs
	if workloadName != "all" {
		sp, ok := specByName(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		run = []spec{sp}
	}
	var traces []int
	switch trace {
	case "0":
		traces = []int{0}
	case "1":
		traces = []int{1}
	case "both":
		traces = []int{0, 1}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", trace)
	}
	env, err := newEnvironment(ctx, outDir)
	if err != nil {
		return err
	}
	incorrect := false
	for _, sp := range run {
		w, err := generate(sp, seed)
		if err != nil {
			return err
		}
		for _, tr := range traces {
			rec, err := env.runOnce(ctx, w, planFor(time.Duration(seconds)*time.Second, tr))
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if err := appendRecord(out, rec); err != nil {
				return err
			}
			rec.print(os.Stdout)
			incorrect = incorrect || !rec.Correct
		}
	}
	if incorrect {
		return fmt.Errorf("responses differed from the oracle")
	}
	return nil
}

// stamp says where a result comes from; it rides on every record.
type stamp struct {
	NProc             int    `json:"nproc"`
	DaemonGOMAXPROCS  int    `json:"daemon_gomaxprocs"`
	LoadgenGOMAXPROCS int    `json:"loadgen_gomaxprocs"`
	Clients           int    `json:"clients"`
	GoVersion         string `json:"go"`
	Commit            string `json:"commit"`
}

// environment is what all runs of one invocation share: the built
// binaries, the directory everything is written under, and the split of
// the machine between daemon and generator.
type environment struct {
	dir                string
	serveBin, indexBin string
	stamp              stamp
}

func newEnvironment(ctx context.Context, dir string) (*environment, error) {
	serveBin, indexBin, err := buildBinaries(ctx, filepath.Join(dir, "bin"))
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	commit := "unknown"
	if b, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return &environment{dir: dir, serveBin: serveBin, indexBin: indexBin, stamp: stamp{
		NProc: nproc,
		// One core is left to the generator, and the generator never has
		// more callers than the machine has cores (2 on the reference box).
		DaemonGOMAXPROCS:  max(1, nproc-1),
		LoadgenGOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:           min(2, nproc),
		GoVersion:         runtime.Version(),
		Commit:            commit,
	}}, nil
}

// record is one run: the line appended to the results file. The result
// line the driver reads is a projection of it.
type record struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Trace        int     `json:"trace"`
	Seconds      float64 `json:"seconds"`
	Stamp        stamp   `json:"stamp"`
	BodiesSHA256 string  `json:"bodies_sha256"`
	Correct      bool    `json:"correct"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	Requests     int     `json:"requests"`
	// LatencySamples is how many requests the latency percentiles are over;
	// LatencyLadderMs is more of that distribution than the two declared
	// percentiles, keyed p10 … p99.
	LatencySamples  int                `json:"latency_samples"`
	LatencyLadderMs map[string]float64 `json:"latency_ladder_ms"`
	Metrics         map[string]float64 `json:"metrics"`
	// SliceRates is the throughput of every slice of the window, kept or
	// not, for whoever wants to see what the box did during the run.
	SliceRates  []float64 `json:"slice_ops_per_s"`
	TraceErrors []string  `json:"trace_errors,omitempty"`
	SpanFile    string    `json:"span_file,omitempty"`
	FirstError  string    `json:"first_error,omitempty"`
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes every metric of the run by name with its unit, then the
// result line: one JSON object with the declared metrics of this kind of
// run and nothing else.
func (r record) print(w *os.File) {
	defs := declaredFor(r.Trace)
	fmt.Fprintf(w, "# %s seed=%d trace=%d seconds=%g nproc=%d daemon_gomaxprocs=%d loadgen_gomaxprocs=%d clients=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Stamp.NProc, r.Stamp.DaemonGOMAXPROCS, r.Stamp.LoadgenGOMAXPROCS,
		r.Stamp.Clients, r.Stamp.GoVersion, r.Stamp.Commit)
	fmt.Fprintf(w, "# %s bodies sha256 %s; %d requests, %d ops attempted, %d failed; latency percentiles over %d requests\n",
		r.Workload, r.BodiesSHA256, r.Requests, r.Attempted, r.Failed, r.LatencySamples)
	for _, d := range defs {
		fmt.Fprintf(w, "%-20s %-34s %14.4f %s\n", r.Workload, d.Name, r.Metrics[d.Name], d.Unit)
	}
	var extra []string
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
	}
	for name := range r.Metrics {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-20s %-34s %14.4f (not declared for this kind of run)\n", r.Workload, name, r.Metrics[name])
	}
	for _, e := range r.TraceErrors {
		fmt.Fprintf(w, "# %s measurement error: %s\n", r.Workload, e)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "# %s spans written to %s\n", r.Workload, r.SpanFile)
	}
	if r.FirstError != "" {
		fmt.Fprintf(w, "# %s first failure: %s\n", r.Workload, r.FirstError)
	}
	metrics, err := pick(defs, r.Metrics)
	if err != nil {
		// runOnce has already refused such a record.
		panic(err)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// plan is how one run spends its time.
type plan struct {
	length time.Duration // what the caller asked to be measured
	setups int           // set-ups; the last daemon is the one measured
	window time.Duration // closed-loop traffic against the daemon
	trace  *traceLimits  // nil for an end-to-end run
}

// planFor splits `length`. An end-to-end run (trace 0) sets up
// setupRepeats times and drives the daemon for all of `length`. A traced
// run sets up once and divides `length` between a daemon window, which
// gives the counters the daemon keeps itself, and the two in-process
// replays.
func planFor(length time.Duration, trace int) plan {
	if trace == 0 {
		return plan{length: length, setups: setupRepeats, window: length}
	}
	return plan{length: length, setups: 1, window: length * 4 / 10,
		trace: &traceLimits{extendBudget: length * 35 / 100, mapBudget: length * 25 / 100, maxRequests: 1 << 30}}
}

// runOnce sets the program up, measures one window against the daemon
// and, for a traced run, replays the workload through the layers.
func (env *environment) runOnce(ctx context.Context, w *workload, p plan) (record, error) {
	sp := w.spec
	rec := record{Workload: sp.name, Seed: w.seed, Seconds: p.length.Seconds(), Stamp: env.stamp,
		BodiesSHA256: w.primary().sha256, Metrics: map[string]float64{}}
	if p.trace != nil {
		rec.Trace = 1
	}
	m := rec.Metrics
	dir := filepath.Join(env.dir, "work", sp.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rec, err
	}
	fasta, rix := filepath.Join(dir, "ref.fa"), filepath.Join(dir, "ref.rix")
	if sp.endpoint == mapPath {
		if err := w.writeFasta(fasta); err != nil {
			return rec, err
		}
	}
	tr := w.primary()
	check := w.checker(tr)

	// Set-up, as the operator pays for it: index build where the workload
	// has one, daemon launch, /healthz, and the fixed warm-up traffic.
	var d *daemon
	var setups []float64
	for k := 0; k < p.setups; k++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if sp.endpoint == mapPath {
			if err := buildIndexFile(ctx, env.indexBin, fasta, rix); err != nil {
				return rec, err
			}
		}
		var err error
		d, err = startDaemon(ctx, env.serveBin, sp.daemonFlags(rix), env.stamp.DaemonGOMAXPROCS, filepath.Join(dir, "daemon.log"))
		if err != nil {
			return rec, err
		}
		warm := runLoad(ctx, d.addr, tr, check, env.stamp.Clients, sp.warmup, 0)
		setups = append(setups, time.Since(t0).Seconds())
		if warm.failed > 0 {
			d.stop()
			return rec, fmt.Errorf("warm-up: %d of %d ops failed: %w", warm.failed, warm.attempted, warm.firstErr)
		}
	}
	defer d.stop()
	m["setup_s"] = median(setups)

	// The warm-up is a fixed list of requests, so the check counters it
	// leaves behind repeat exactly for a seed.
	before, err := d.counters()
	if err != nil {
		return rec, err
	}
	if before.Checks.Total > 0 {
		total := float64(before.Checks.Total)
		m["core.pass_rate"] = float64(before.Checks.Passed) / total
		m["core.threshold_only_rate"] = float64(before.Checks.ThresholdOnly) / total
		m["core.rerun_rate"] = float64(before.Checks.Reruns) / total
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return rec, err
	}
	self0, t0 := selfCPUSeconds(), time.Now()
	rss := make(chan []float64)
	stopRSS := make(chan struct{})
	go func() { rss <- d.sampleRSS(stopRSS) }()
	load := runLoad(ctx, d.addr, tr, check, env.stamp.Clients, 0, p.window)
	close(stopRSS)
	rssSamples := <-rss
	wall := time.Since(t0).Seconds()
	self1 := selfCPUSeconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return rec, err
	}
	after, err := d.counters()
	if err != nil {
		return rec, err
	}
	if len(rssSamples) == 0 {
		return rec, fmt.Errorf("no RSS sample of the daemon in %v", p.window)
	}
	if err := ctx.Err(); err != nil {
		return rec, err
	}

	st := steadyPart(load.samples, p.window)
	rec.SliceRates = st.rates
	lat := latenciesMs(st.kept)
	m["throughput_ops_s"] = st.opsPerSecond
	m["latency_p50_ms"] = median(lat)
	m["latency_p90_99_mean_ms"] = tailMean(lat)
	m["loadgen.slow_slice_share"] = st.slowShare
	rec.LatencySamples = len(lat)
	rec.LatencyLadderMs = map[string]float64{}
	for _, q := range []int{10, 25, 50, 75, 90, 95, 99} {
		rec.LatencyLadderMs[fmt.Sprintf("p%d", q)] = quantile(lat, float64(q)/100)
	}
	m["rss_mb"] = median(rssSamples)
	goodOps := float64(load.attempted - load.failed)
	batches := after.Batches - before.Batches
	m["server.batches"] = float64(batches)
	if batches > 0 {
		m["server.batch_occupancy_mean"] = float64(after.Completed-before.Completed) / float64(batches)
	}
	// The daemon keeps these two as quantiles since its start, warm-up
	// included; it does not export the histogram to take a delta of.
	m["server.queue_wait_p50_us"] = after.QueueWaitP50Us
	m["server.queue_wait_p99_us"] = after.QueueWaitP99Us
	m["server.jobs_rejected"] = float64(after.Rejected - before.Rejected)
	m["proc.cpu_ms_per_kop"] = (cpu1 - cpu0) * 1e3 / (goodOps / 1e3)
	m["proc.cpu_util"] = (cpu1 - cpu0) / wall
	m["loadgen.cpu_util"] = (self1 - self0) / wall
	m["loadgen.requests"] = float64(len(load.samples))
	rec.Requests, rec.Attempted, rec.Failed = len(load.samples), load.attempted, load.failed
	if load.firstErr != nil {
		rec.FirstError = load.firstErr.Error()
	}

	if p.trace != nil {
		// The daemon is stopped first: the replay wants the cores.
		d.stop()
		res, err := tracedRun(ctx, w, env.stamp.DaemonGOMAXPROCS, *p.trace, env.dir)
		if err != nil {
			return rec, err
		}
		for k, v := range res.metrics {
			m[k] = v
		}
		rec.Attempted += res.attempted
		rec.Failed += res.failed
		rec.TraceErrors, rec.SpanFile = res.errors, res.spanFile
		if rec.FirstError == "" && res.firstErr != nil {
			rec.FirstError = res.firstErr.Error()
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	_, err = pick(declaredFor(rec.Trace), m)
	return rec, err
}
