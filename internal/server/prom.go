package server

import (
	"strconv"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/obs"
)

// collectProm is the server's Prometheus collector: it adapts the
// existing atomic counters, power-of-two histograms, check statistics,
// fault-tolerance counters and kernel telemetry into text-exposition
// families at scrape time. Nothing here touches the hot paths — a scrape
// is atomic loads plus formatting.
func (s *Server) collectProm(p *obs.Prom) {
	m := s.met

	// Admission and completion counters.
	p.Counter("seedex_requests_total", "HTTP requests served on the job endpoints.", float64(m.Requests.Load()))
	p.Counter("seedex_requests_bad_input_total", "Requests refused with 400.", float64(m.BadInput.Load()))
	p.Counter("seedex_requests_failed_total", "Requests answered 429/500/503/504 (burns the availability budget).", float64(m.Failed.Load()))
	p.Counter("seedex_jobs_accepted_total", "Jobs admitted to the batching queue.", float64(m.Accepted.Load()))
	p.Counter("seedex_jobs_rejected_total", "Jobs refused with 429 (queue full).", float64(m.Rejected.Load()))
	p.Counter("seedex_jobs_rejected_draining_total", "Jobs refused with 503 (draining).", float64(m.Draining.Load()))
	p.Counter("seedex_jobs_expired_total", "Jobs whose deadline passed before compute.", float64(m.Expired.Load()))
	p.Counter("seedex_jobs_completed_total", "Jobs fully computed.", float64(m.Completed.Load()))
	p.Counter("seedex_batches_total", "Micro-batches dispatched to workers.", float64(m.Batches.Load()))

	// Queues (summed over shards, keeping the pre-sharding meaning).
	extDepth, extCap := queueTotals(s, extPipe)
	p.Gauge("seedex_queue_depth", "Jobs waiting in the admission queue.", float64(extDepth), "queue", "extend")
	p.Gauge("seedex_queue_cap", "Admission queue capacity.", float64(extCap), "queue", "extend")
	if s.mapEnabled() {
		mapDepth, mapCap := queueTotals(s, mapPipe)
		p.Gauge("seedex_queue_depth", "Jobs waiting in the admission queue.", float64(mapDepth), "queue", "map")
		p.Gauge("seedex_queue_cap", "Admission queue capacity.", float64(mapCap), "queue", "map")
	}

	// Histograms with interpolated quantile estimates alongside. The
	// pow-2 nanosecond buckets convert to exact-le second buckets.
	lat := m.Latency.snapshot()
	p.Histogram("seedex_request_latency_seconds", "Request service time (admission to response ready).",
		obs.Pow2Buckets(lat.Counts[:], 1e-9), float64(lat.Sum)/1e9, lat.N)
	latQ := lat.Quantiles().Scaled(1e-9)
	p.Quantiles("seedex_request_latency_quantile_seconds", "Interpolated request latency quantiles.",
		map[float64]float64{0.5: latQ.P50, 0.9: latQ.P90, 0.99: latQ.P99})

	// What the wire codec costs: busy seconds per stage over the bodies
	// scanned (no socket time in either).
	p.Counter("seedex_codec_seconds_total", "Wire codec busy time on the batch endpoints.", float64(m.DecodeNs.Load())/1e9, "stage", "decode")
	p.Counter("seedex_codec_seconds_total", "Wire codec busy time on the batch endpoints.", float64(m.EncodeNs.Load())/1e9, "stage", "encode")
	p.Counter("seedex_codec_requests_total", "Request bodies scanned by the wire codec.", float64(m.CodecRequests.Load()))

	qw := m.QueueWait.snapshot()
	p.Histogram("seedex_queue_wait_seconds", "Per-job wait from admission to batch dispatch.",
		obs.Pow2Buckets(qw.Counts[:], 1e-9), float64(qw.Sum)/1e9, qw.N)
	qwQ := qw.Quantiles().Scaled(1e-9)
	p.Quantiles("seedex_queue_wait_quantile_seconds", "Interpolated queue-wait quantiles.",
		map[float64]float64{0.5: qwQ.P50, 0.9: qwQ.P90, 0.99: qwQ.P99})

	occ := m.Occupancy.snapshot()
	p.Histogram("seedex_batch_occupancy", "Jobs per dispatched micro-batch.",
		obs.Pow2Buckets(occ.Counts[:], 1), float64(occ.Sum), occ.N)
	occQ := occ.Quantiles()
	p.Quantiles("seedex_batch_occupancy_quantile", "Interpolated batch-occupancy quantiles.",
		map[float64]float64{0.5: occQ.P50, 0.9: occQ.P90, 0.99: occQ.P99})

	// Check workflow outcomes and degraded-mode containment counters,
	// merged over every distinct stats source in the shard pool.
	if snap, ok := s.checksSnapshot(); ok {
		p.Counter("seedex_check_total", "Extensions through the check workflow.", float64(snap.Total))
		p.Counter("seedex_check_passed_total", "Extensions proven optimal.", float64(snap.Passed))
		p.Counter("seedex_check_reruns_total", "Extensions rerun on the host.", float64(snap.Reruns))
		p.Counter("seedex_check_threshold_only_total", "Extensions proven optimal by thresholding alone.", float64(snap.ThresholdOnly))
		for o, n := range snap.Outcomes {
			p.Counter("seedex_check_outcome_total", "Check outcomes by verdict.", float64(n),
				"outcome", core.Outcome(o).String())
		}
		p.Counter("seedex_device_faults_total", "Device responses that failed integrity validation.", float64(snap.DeviceFaults))
		p.Counter("seedex_device_retries_total", "Device batch attempts retried.", float64(snap.DeviceRetries))
		p.Counter("seedex_breaker_trips_total", "Circuit breaker closed->open transitions.", float64(snap.BreakerTrips))
		p.Counter("seedex_host_only_total", "Extensions served entirely by the host full-band kernel.", float64(snap.HostOnly))
	}
	degradedShards := 0
	for _, sh := range s.shards {
		if sh.degraded() {
			degradedShards++
		}
	}
	if s.health != nil || degradedShards > 0 {
		degraded := 0.0
		if degradedShards > 0 {
			degraded = 1
		}
		p.Gauge("seedex_degraded", "1 while a breaker keeps any shard's device out of the path.", degraded)
	}
	if s.health != nil {
		h := s.health()
		for _, state := range []string{"closed", "open", "half-open"} {
			v := 0.0
			if h.Breaker == state {
				v = 1
			}
			p.Gauge("seedex_breaker_state", "Breaker state (exactly one series is 1).", v, "state", state)
		}
	}

	// Shard pool and routing tier: per-shard jobs, occupancy and breaker
	// state, plus the router's decision and steal counters. These families
	// split the aggregates above by shard; they never replace them.
	p.Gauge("seedex_shards", "Shard units in the serving pool.", float64(len(s.shards)))
	p.Gauge("seedex_shards_degraded", "Shards currently in host-only (degraded) mode.", float64(degradedShards))
	for _, sh := range s.shards {
		lbl := strconv.Itoa(sh.id)
		occ := sh.sm.occupancy.snapshot()
		p.Counter("seedex_shard_jobs_accepted_total", "Jobs admitted to this shard's queue.", float64(sh.sm.accepted.Load()), "shard", lbl)
		p.Counter("seedex_shard_jobs_completed_total", "Jobs computed for this shard.", float64(sh.sm.completed.Load()), "shard", lbl)
		p.Counter("seedex_shard_jobs_rejected_total", "Submits refused by this shard's full queue.", float64(sh.sm.rejected.Load()), "shard", lbl)
		p.Counter("seedex_shard_jobs_expired_total", "Admitted jobs that expired before compute.", float64(sh.sm.expired.Load()), "shard", lbl)
		p.Counter("seedex_shard_batches_total", "Micro-batches dispatched by this shard's collector.", float64(sh.sm.batches.Load()), "shard", lbl)
		p.Gauge("seedex_shard_batch_occupancy_mean", "Mean jobs per dispatched batch on this shard.", occ.Mean(), "shard", lbl)
		p.Gauge("seedex_shard_queue_depth", "Jobs waiting in this shard's admission queue.", float64(sh.ext.QueueDepth()), "shard", lbl)
		p.Gauge("seedex_shard_inflight", "Admitted-but-unfinished jobs on this shard.", float64(sh.inflight.Load()), "shard", lbl)
		p.Counter("seedex_router_routed_total", "Routing decisions that picked this shard.", float64(sh.sm.routed.Load()), "shard", lbl)
		p.Counter("seedex_router_avoided_total", "Routing decisions that skipped this shard while degraded.", float64(sh.sm.avoided.Load()), "shard", lbl)
		p.Counter("seedex_router_rerouted_total", "Jobs failed over to this shard after another queue refused them.", float64(sh.sm.rerouted.Load()), "shard", lbl)
		p.Counter("seedex_router_steals_total", "Batches this shard's workers stole from peers.", float64(sh.sm.steals.Load()), "shard", lbl)
		p.Counter("seedex_router_stolen_total", "Batches peers stole from this shard.", float64(sh.sm.stolen.Load()), "shard", lbl)
		if sh.health != nil {
			h := sh.health()
			deg := 0.0
			if h.Degraded {
				deg = 1
			}
			p.Gauge("seedex_shard_degraded", "1 while this shard is in host-only mode.", deg, "shard", lbl)
			for _, state := range []string{"closed", "open", "half-open"} {
				v := 0.0
				if h.Breaker == state {
					v = 1
				}
				p.Gauge("seedex_shard_breaker_state", "This shard's breaker state (exactly one series is 1).", v, "shard", lbl, "state", state)
			}
		}
	}

	// Kernel-level telemetry: tier mix, demotions, lane occupancy and
	// sweep throughput of the packed batch kernels.
	uptime := time.Since(s.started).Seconds()
	kt := align.KernelSnapshot()
	for _, isa := range []string{"avx2", "none"} {
		p.Gauge("seedex_kernel_native", "Instruction set of the native packed tier on this host, chosen by CPUID at start-up (exactly one series is 1).",
			boolGauge(isa == align.NativeISA()), "isa", isa)
	}
	p.Counter("seedex_kernel_chunks_total", "Batch-kernel invocations (chunks).", float64(kt.Batches))
	for tier, n := range kt.Jobs {
		p.Counter("seedex_kernel_jobs_total", "Jobs per assigned kernel tier.", float64(n),
			"tier", align.TierName(tier))
	}
	p.Counter("seedex_kernel_degenerate_total", "Jobs that bypassed the tier ladder.", float64(kt.Degenerate))
	for tier, n := range kt.Demoted {
		if tier == align.TierScalar {
			continue // scalar jobs are never demoted; skip the dead series
		}
		p.Counter("seedex_kernel_demoted_total", "SWAR-assigned jobs demoted to scalar by envelope divergence, by assigned tier (the native tier carries its whole group).", float64(n),
			"tier", align.TierName(tier))
	}
	p.Counter("seedex_kernel_solo_total", "Jobs run scalar because their group filled one lane.", float64(kt.Solo))
	for tier, n := range kt.Groups {
		if tier == align.TierScalar {
			continue
		}
		p.Counter("seedex_kernel_groups_total", "Packed lane groups executed, by kernel tier.", float64(n),
			"tier", align.TierName(tier))
		p.Counter("seedex_kernel_lanes_total", "Lanes filled across packed groups, by kernel tier.", float64(kt.Lanes[tier]),
			"tier", align.TierName(tier))
	}
	p.Counter("seedex_kernel_cells_total", "DP cells swept by the batch kernels.", float64(kt.Cells))
	p.Gauge("seedex_kernel_lane_occupancy", "Mean lanes filled per packed group.", kt.LaneOccupancy())
	p.Gauge("seedex_kernel_lane_utilization", "Filled lanes over lane capacity across packed groups.", kt.LaneUtilization())
	for tier := range kt.Groups {
		if tier == align.TierScalar {
			continue
		}
		p.Gauge("seedex_kernel_tier_lane_utilization", "Per-tier filled lanes over lane capacity.", kt.TierLaneUtilization(tier),
			"tier", align.TierName(tier))
	}
	if uptime > 0 {
		p.Gauge("seedex_kernel_cells_per_second", "Mean DP cell throughput since start.", float64(kt.Cells)/uptime)
	}

	// Reference index lifecycle (the generation store behind /v1/map).
	if s.cfg.RefStore != nil {
		st := s.cfg.RefStore.Status()
		p.Gauge("seedex_index_generation", "Serving generation of the reference index store.", float64(st.Generation))
		p.Counter("seedex_index_reloads_total", "Index hot reloads that published a new generation.", float64(st.Reloads))
		p.Counter("seedex_index_reload_failures_total", "Index load attempts rejected (corrupt, truncated, vanished).", float64(st.ReloadFailures))
		p.Counter("seedex_index_rollbacks_total", "Reload triggers that exhausted retries and kept the old generation.", float64(st.Rollbacks))
		p.Gauge("seedex_index_degraded_reload", "1 while the last reload rolled back (still serving the previous generation).", boolGauge(st.DegradedReload))
		p.Gauge("seedex_index_mmap_bytes", "Bytes of the serving generation's read-only mapping (0 on the copy-load path).", float64(st.MappedBytes))
		p.Gauge("seedex_index_warmup_seconds", "Page-touch warmup time of the serving generation.", st.WarmupMs/1e3)
		p.Gauge("seedex_index_load_seconds", "Validate-and-assemble time of the serving generation.", st.LoadMs/1e3)
	}

	// Tracer health.
	if s.trace != nil {
		ts := s.trace.TraceStats()
		p.Gauge("seedex_trace_sample_every", "Head-sampling ratio (1 in N requests).", float64(ts.SampleEvery))
		p.Counter("seedex_trace_sampled_requests_total", "Requests selected by head sampling.", float64(ts.SampledTotal))
		p.Counter("seedex_trace_spans_total", "Spans copied into retained journeys.", float64(ts.SpansTotal))
		p.Gauge("seedex_trace_slow_retained", "Requests held in the slow top-K.", float64(ts.SlowRetained))
		if ts.TailEnabled {
			p.Counter("seedex_trace_tail_started_total", "Requests that recorded into a journey buffer.", float64(ts.TailStarted))
			p.Counter("seedex_trace_tail_retained_total", "Journeys the verdict kept.", float64(ts.TailKept))
			p.Gauge("seedex_trace_tail_retained", "Journeys currently retained (kept store plus slow top-K).", float64(ts.TailRetained))
			p.Counter("seedex_trace_tail_span_drops_total", "Spans dropped by full journey buffers.", float64(ts.TailSpanDrops))
		}
	}

	// SLO burn-rate engine (seedex_slo_* families).
	s.slo.Collect(p)

	// Flight recorder.
	if s.flight != nil {
		p.Counter("seedex_flight_dumps_total", "Flight-recorder tarballs written.", float64(s.flight.Dumps()))
	}

	// Build identity and process lifetime. seedex_build_info follows the
	// _info convention: constant 1, identity in the labels.
	b := s.cfg.Build
	p.Gauge("seedex_build_info", "Build identity (constant 1; version/commit/go in labels).", 1,
		"version", b.Version, "commit", b.Commit, "go", b.GoVersion())
	p.Gauge("seedex_process_uptime_seconds", "Seconds since the server started.", uptime)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
