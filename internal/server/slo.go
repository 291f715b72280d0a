package server

import (
	"encoding/json"
	"io"
	"time"

	"seedex/internal/obs"
)

// SLOConfig declares the server's service-level objectives for the
// burn-rate engine (internal/obs/slo.go). The zero value enables the
// engine with the defaults below; set Interval < 0 to disable the
// background sampler (scrapes of /debug/slo still tick on demand).
type SLOConfig struct {
	// LatencyBudget is the per-request latency objective threshold for
	// the extend-latency objective (default: the tail-sampling budget
	// when tail retention is on, else 100ms). Requests finishing within
	// the budget are "good" events.
	LatencyBudget time.Duration
	// LatencyTarget is the promised fraction of requests within
	// LatencyBudget (default 0.99 — a p99 latency objective).
	LatencyTarget float64
	// AvailabilityTarget is the promised fraction of requests answered
	// without a 429/500/503/504 (default 0.999).
	AvailabilityTarget float64
	// Interval is the background sampling cadence (default 10s; < 0
	// disables the sampler).
	Interval time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c SLOConfig) withDefaults(tailBudget time.Duration) SLOConfig {
	if c.LatencyBudget <= 0 {
		c.LatencyBudget = tailBudget
	}
	if c.LatencyBudget <= 0 {
		c.LatencyBudget = 100 * time.Millisecond
	}
	if c.LatencyTarget <= 0 || c.LatencyTarget >= 1 {
		c.LatencyTarget = 0.99
	}
	if c.AvailabilityTarget <= 0 || c.AvailabilityTarget >= 1 {
		c.AvailabilityTarget = 0.999
	}
	return c
}

// newSLO wires the two declared objectives to the server's existing
// counters. Every source reads cumulative totals, so the engine costs
// the hot paths nothing: sampling is a counter sweep on a 10s cadence.
func (s *Server) newSLO() *obs.SLO {
	cfg := s.cfg.SLO.withDefaults(s.trace.TailBudget())
	s.cfg.SLO = cfg
	budgetNs := cfg.LatencyBudget.Nanoseconds()
	objs := []obs.Objective{
		{
			Name:   "extend-latency-p99",
			Help:   "Requests finishing within the latency budget (" + cfg.LatencyBudget.String() + ").",
			Target: cfg.LatencyTarget,
			// Good events sum the pow2 latency buckets whose upper bound
			// fits the budget; the bucket straddling the threshold counts
			// as bad, so the objective is conservative by at most one
			// power of two.
			Source: func() (int64, int64) {
				lat := s.met.Latency.snapshot()
				var good int64
				for i, c := range lat.Counts {
					if _, hi := bucketBounds(i); int64(hi) <= budgetNs {
						good += c
					}
				}
				return good, lat.N
			},
		},
		{
			Name:   "availability",
			Help:   "Requests answered without a 429/500/503/504.",
			Target: cfg.AvailabilityTarget,
			Source: func() (int64, int64) {
				total := s.met.Requests.Load()
				bad := s.met.Failed.Load()
				return total - bad, total
			},
		},
	}
	return obs.NewSLO(obs.SLOConfig{Interval: cfg.Interval, Now: cfg.Now}, objs...)
}

// FlightRecorder exposes the crash/degradation dump recorder, nil when
// Config.Flight.Dir is empty.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }

// FlightDump writes one flight tarball (debounced by the recorder's
// MinInterval; obs.ErrFlightThrottled when suppressed). Returns the
// tarball path.
func (s *Server) FlightDump(reason string) (string, error) {
	if s.flight == nil {
		return "", obs.ErrFlightDisabled
	}
	return s.flight.Dump(reason, s.flightSources(reason))
}

// FlightDumpForce bypasses the debounce — operator-initiated dumps
// (SIGQUIT) always land.
func (s *Server) FlightDumpForce(reason string) (string, error) {
	if s.flight == nil {
		return "", obs.ErrFlightDisabled
	}
	return s.flight.Force(reason, s.flightSources(reason))
}

// flightSources assembles the dump contents: trigger metadata, the full
// metrics document, the SLO engine state, every retained journey, their
// spans and the slow top-K's root spans as NDJSON. The recorder appends
// goroutine and heap profiles on its own.
func (s *Server) flightSources(reason string) []obs.FlightSource {
	srcs := []obs.FlightSource{
		jsonSource("meta.json", func() any {
			return map[string]any{
				"reason":     reason,
				"time":       time.Now().UTC().Format(time.RFC3339Nano),
				"version":    s.cfg.Build.Version,
				"commit":     s.cfg.Build.Commit,
				"go":         s.cfg.Build.GoVersion(),
				"uptime_sec": time.Since(s.started).Seconds(),
			}
		}),
		jsonSource("metrics.json", func() any { return s.scrape().doc() }),
		jsonSource("slo.json", func() any {
			s.slo.Tick()
			return s.slo.Snapshot()
		}),
	}
	if s.trace != nil {
		_, epochWall := s.trace.Epoch()
		srcs = append(srcs,
			jsonSource("journeys.json", func() any { return s.trace.Journeys() }),
			obs.FlightSource{Name: "traces.ndjson", Write: func(w io.Writer) error {
				return obs.WriteNDJSON(w, epochWall, s.trace.Snapshot())
			}},
			obs.FlightSource{Name: "slow.ndjson", Write: func(w io.Writer) error {
				return obs.WriteNDJSON(w, epochWall, s.trace.SlowSnapshot())
			}},
		)
	}
	return srcs
}

// jsonSource wraps a snapshot closure as an indented-JSON flight file.
func jsonSource(name string, v func() any) obs.FlightSource {
	return obs.FlightSource{Name: name, Write: func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v())
	}}
}

// startFlightWatcher launches the degradation watcher: every FlightPoll
// (default 2s) it takes a scrape and compares it with the last one. The
// index rollback counter advancing, or the SLO fast-burn flag rising,
// triggers an automatic flight dump named for the trigger; the recorder's
// MinInterval debounce keeps a flapping trigger from filling the disk.
func (s *Server) startFlightWatcher() {
	poll := s.cfg.FlightPoll
	if poll <= 0 {
		poll = 2 * time.Second
	}
	s.flightStop = make(chan struct{})
	s.flightDone = make(chan struct{})
	rollbacks := func(c *scrape) int64 {
		if c.index == nil {
			return 0
		}
		return c.index.Rollbacks
	}
	last := s.scrape()
	go func() {
		defer close(s.flightDone)
		tick := time.NewTicker(poll)
		defer tick.Stop()
		for {
			select {
			case <-s.flightStop:
				return
			case <-tick.C:
			}
			c := s.scrape()
			if rollbacks(c) > rollbacks(last) {
				s.FlightDump("reload-rollback")
			}
			if c.slo.FastBurn && !last.slo.FastBurn {
				s.FlightDump("slo-fast-burn")
			}
			last = c
		}
	}()
}
