package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seedex/internal/align"
	"seedex/internal/bwamem"
	"seedex/internal/core"
	"seedex/internal/fmindex"
	"seedex/internal/obs"
	"seedex/internal/refstore"
	"seedex/internal/server"
)

// Build identity, stamped at link time:
//
//	go build -ldflags "-X main.version=v1.2.3 -X main.commit=$(git rev-parse --short HEAD)"
//
// Plain builds report dev/unknown. The values surface as the
// seedex_build_info gauge, the /metrics "build" section, every log
// line's source binary, and each flight dump's meta.json.
var (
	version string
	commit  string
)

// run is the testable daemon body; main wires it to os streams. When
// ready is non-nil it receives the bound listen address once the server
// accepts connections. run returns after a graceful drain (SIGINT or
// SIGTERM) or a listener failure.
func run(args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("seedex-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8844", "listen address")
	extName := fs.String("extender", "seedex", "extension engine: seedex | fullband | banded")
	band := fs.Int("band", 20, "one-sided band (SeedEx and banded engines)")
	mode := fs.String("mode", "strict", "seedex check workflow: strict (bit-identical to full-band) | paper (threshold passes skip the edit machine)")
	maxBatch := fs.Int("max-batch", 64, "flush a micro-batch at this many jobs (1 disables coalescing)")
	flush := fs.Duration("flush", 200*time.Microsecond, "flush a micro-batch this long after its first job arrives (0 = never wait: each batch takes whatever is queued)")
	queueCap := fs.Int("queue", 1024, "admission queue bound; overflow answers 429")
	workers := fs.Int("workers", 0, "batch workers (0 = GOMAXPROCS)")
	indexStore := fs.String("index-store", "", "enable /v1/map, served from this checksummed container index (built by seedex-index): memory-mapped read-only, hot-reloadable via SIGHUP or POST /admin/reload, with rollback on a bad file")
	maxJobs := fs.Int("max-jobs", 4096, "maximum jobs or reads per request")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful drain budget on shutdown")
	traceSample := fs.Int("trace-sample", 0, "keep the journey of 1 in N requests (the sampled rule), at /debug/journeys and /debug/traces (0 disables head sampling)")
	traceSlow := fs.Int("trace-slow", 64, "keep the K slowest requests so far regardless of sampling (the slow rule; root spans at /debug/traces/slow, full journeys when recorded)")
	traceTail := fs.Bool("trace-tail", false, "tail-based retention: every request records its journey, and completions that breached the latency budget, failed, or crossed an index reload are kept at /debug/journeys and /debug/traces")
	traceTailBudget := fs.Duration("trace-tail-budget", 100*time.Millisecond, "latency budget for the tail-retention verdict (and the default SLO latency objective)")
	traceTailKeep := fs.Int("trace-tail-keep", 256, "journeys kept beside the slow top-K, bounding /debug/journeys and /debug/traces (oldest head-sampled evicted first, then oldest)")
	sloLatency := fs.Duration("slo-latency", 0, "latency threshold of the extend-latency SLO objective (0 = the tail budget)")
	sloInterval := fs.Duration("slo-interval", 10*time.Second, "SLO burn-rate sampling cadence (<0 disables the background sampler)")
	flightDir := fs.String("flight-dir", "", "write crash/degradation flight-recorder tarballs here (SIGQUIT, reload rollbacks, SLO fast burn; empty disables the recorder)")
	flightMinIv := fs.Duration("flight-min-interval", 30*time.Second, "debounce between automatic flight dumps (SIGQUIT bypasses it)")
	flightPoll := fs.Duration("flight-poll", 2*time.Second, "degradation watcher cadence: how often reload rollbacks and the SLO fast-burn flag are checked for an automatic dump")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof profiling handlers on this separate address (empty disables them)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// One JSON object per stderr line from here on; flag errors above keep
	// the flag package's plain-text usage output.
	logger := obs.NewLogger(stderr, "seedex-serve")
	build := obs.BuildInfo{Version: version, Commit: commit}.WithDefaults()

	if err := core.ValidateBand(*band); err != nil {
		return err
	}

	// The engine is built before the listener binds, so flag errors
	// surface first.
	ext, err := core.NamedExtender(*extName, *band)
	if err != nil {
		return err
	}
	se, _ := ext.(*core.SeedEx)
	switch *mode {
	case "strict":
	case "paper":
		if se != nil {
			se.Config.Mode = core.ModePaper
		}
	default:
		return fmt.Errorf("unknown mode %q (valid: strict, paper)", *mode)
	}

	tracer := obs.New(obs.Config{
		SampleEvery: *traceSample,
		SlowK:       *traceSlow,
		Tail: obs.TailConfig{
			Enabled: *traceTail,
			Budget:  *traceTailBudget,
			Keep:    *traceTailKeep,
		},
	})

	// The initial open of the generation store is strict: a bad container
	// at startup is an operator error and refuses to serve.
	var store *refstore.Store
	if *indexStore != "" {
		st, err := refstore.Open(*indexStore, refstore.Options{
			Logf: func(format string, a ...any) {
				logger.Info(fmt.Sprintf(format, a...))
			},
		})
		if err != nil {
			return fmt.Errorf("opening index store: %w", err)
		}
		store = st
		defer store.Close()
	}

	flushIv := *flush
	if flushIv == 0 {
		// The flag default is explicit, so a literal -flush 0 means
		// "never wait", not "use the library default".
		flushIv = server.FlushOpportunistic
	}
	scfg := server.Config{
		Extender: ext,
		Batch: server.BatcherConfig{
			MaxBatch:      *maxBatch,
			FlushInterval: flushIv,
			QueueCap:      *queueCap,
			Workers:       *workers,
		},
		MaxJobsPerRequest: *maxJobs,
		Trace:             tracer,
		Build:             build,
		SLO:               server.SLOConfig{LatencyBudget: *sloLatency, Interval: *sloInterval},
		Flight:            obs.FlightConfig{Dir: *flightDir, MinInterval: *flightMinIv},
		FlightPoll:        *flightPoll,
	}
	if store != nil {
		scfg.RefStore = store
		scfg.NewAligner = func(r *bwamem.Reference, ix *fmindex.Index) *bwamem.Aligner {
			return bwamem.NewWithIndex(r, ix, ext)
		}
	}
	s := server.New(scfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	var debugServer *http.Server
	if *debugAddr != "" {
		// Profiling stays off the service mux on purpose: the pprof
		// handlers are opt-in and bind their own (typically loopback-only)
		// address, so exposing the service never exposes the profiler.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, derr := net.Listen("tcp", *debugAddr)
		if derr != nil {
			return derr
		}
		debugServer = &http.Server{Handler: dmux}
		go debugServer.Serve(dln)
		logger.Info(fmt.Sprintf("pprof profiling on http://%s/debug/pprof/", dln.Addr()))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	// SIGQUIT is the operator's flight-recorder trigger: dump the
	// tail-retained journeys, metrics, SLO state and runtime profiles to
	// a tarball (bypassing the automatic-dump debounce) and keep serving.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			path, err := s.FlightDumpForce("sigquit")
			if err != nil {
				logger.Error("flight dump failed", "reason", "sigquit", "err", err.Error())
				continue
			}
			logger.Info("flight dump written", "reason", "sigquit", "path", path)
		}
	}()

	if store != nil {
		// SIGHUP is the operator's reload trigger (the HTTP twin is POST
		// /admin/reload). A failed reload logs and rolls back; the serving
		// generation is never disturbed.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if _, err := store.Reload(); err != nil {
					logger.Error("SIGHUP reload failed (still serving the previous generation)", "err", err.Error())
				}
			}
		}()
	}

	logger.Info(fmt.Sprintf("listening on %s", ln.Addr()),
		"version", build.Version, "commit", build.Commit, "go", build.GoVersion(),
		"extender", *extName, "band", *band, "batch", *maxBatch,
		"flush", flush.String(), "queue", *queueCap)
	logger.Info("packed kernel back end chosen by CPUID (none: the portable SWAR ladder)", "kernel_native", align.NativeISA())
	if tracer != nil && *traceSample > 0 {
		logger.Info(fmt.Sprintf("tracing 1/%d requests (journeys at /debug/journeys and /debug/traces, slowest %d at /debug/traces/slow)",
			*traceSample, *traceSlow))
	}
	if tracer.TailEnabled() {
		logger.Info("tail retention on: breached/failed/eventful journeys kept at /debug/journeys",
			"budget", traceTailBudget.String(), "keep", *traceTailKeep)
	}
	if s.FlightRecorder() != nil {
		logger.Info("flight recorder armed (SIGQUIT, reload rollbacks, SLO fast burn)",
			"dir", *flightDir, "min_interval", flightMinIv.String())
	}
	if store != nil {
		st := store.Status()
		logger.Info(fmt.Sprintf("/v1/map serving from index store %s (hot reload via SIGHUP or POST /admin/reload)", st.Path),
			"generation", st.Generation, "contigs", st.Contigs, "mmap_bytes", st.MappedBytes,
			"load_ms", st.LoadMs, "warmup_ms", st.WarmupMs)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-sig:
	}

	logger.Info("draining (in-flight work completes, new work gets 503)...")
	s.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("drain budget exceeded, closing", "err", err.Error())
		hs.Close()
	}
	if debugServer != nil {
		debugServer.Close()
	}
	s.Close()
	logger.Info(s.Summary())
	if se != nil {
		logger.Info(fmt.Sprint(se.Stats))
	}
	if store != nil {
		st := store.Status()
		logger.Info(fmt.Sprintf("index store summary: generation=%d reloads=%d failures=%d rollbacks=%d degraded=%v",
			st.Generation, st.Reloads, st.ReloadFailures, st.Rollbacks, st.DegradedReload))
	}
	if fr := s.FlightRecorder(); fr != nil && fr.Dumps() > 0 {
		logger.Info(fmt.Sprintf("flight recorder summary: %d dumps, last %s", fr.Dumps(), fr.LastPath()))
	}
	return nil
}
