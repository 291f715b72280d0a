package driver

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"seedex/internal/align"
	"seedex/internal/faults"
)

// chaosSeeds returns the seed matrix for the equivalence tests:
// SEEDEX_CHAOS_SEED overrides (the CI chaos job pins one seed per run),
// otherwise a small fixed matrix runs.
func chaosSeeds(t *testing.T) []int64 {
	if v := os.Getenv("SEEDEX_CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SEEDEX_CHAOS_SEED=%q: %v", v, err)
		}
		return []int64{s}
	}
	return []int64{1, 7, 1337}
}

// assertFullBand asserts every response is bit-identical to the scalar
// full-band reference.
func assertFullBand(t *testing.T, cfg Config, reqs []Request, resps []Response) {
	t.Helper()
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
	}
	for i, r := range resps {
		if r.Tag != i {
			t.Fatalf("response %d carries tag %d", i, r.Tag)
		}
		want := align.Extend(reqs[i].Q, reqs[i].T, reqs[i].H0, cfg.Scoring)
		got := r.Res
		if got.Local != want.Local || got.LocalT != want.LocalT || got.LocalQ != want.LocalQ ||
			got.Global != want.Global || got.GlobalT != want.GlobalT {
			t.Fatalf("request %d: %+v != full-band %+v (rerun=%v)", i, got, want, r.Rerun)
		}
	}
}

// TestChaosBitEquivalence is the headline robustness property: with every
// fault class injecting at a non-zero rate — payload corruption, verdict
// flips, dropped and slot-swapped DMA responses, device stalls past the
// deadline, whole-core failures — the platform's output stays
// bit-identical to the full-band oracle, and the run terminates within
// the retry/backoff budget. The breaker is parked (TripRatio > 1) so the
// device keeps participating and every containment path is exercised;
// TestChaosBreakerDegradeRecover covers degradation separately.
func TestChaosBitEquivalence(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BatchSize = 32
			cfg.FPGAThreads = 4
			cfg.TimeScale = 0.05
			cfg.DeviceTimeout = 5 * time.Millisecond
			cfg.MaxAttempts = 3
			cfg.RetryBackoff = 50 * time.Microsecond
			cfg.Faults = faults.Uniform(seed, 0.04)
			cfg.Faults.StallFor = 20 * time.Millisecond // reliably past the deadline
			cfg.Breaker = faults.BreakerConfig{TripRatio: 2}
			dev := NewDevice(cfg)
			reqs := makeRequests(800, seed)

			start := time.Now()
			resps := Run(cfg, dev, reqs)
			elapsed := time.Since(start)

			assertFullBand(t, cfg, reqs, resps)
			inj := dev.Injector().Counters()
			if inj.Total() == 0 {
				t.Fatal("chaos run injected nothing; the test proves nothing")
			}
			if inj.Corrupt == 0 || inj.Flip == 0 || inj.Drop == 0 || inj.Reorder == 0 {
				t.Fatalf("some per-response classes never fired: %+v", inj)
			}
			det := dev.DeviceFaults.Load()
			if det == 0 {
				t.Fatalf("injected %d faults but detected none", inj.Total())
			}
			t.Logf("seed %d: injected %+v, detected %d, retries %d, host-only %d, batches %d, %v",
				seed, inj, det, dev.DeviceRetries.Load(), dev.HostOnly.Load(),
				dev.BatchesRun, elapsed)
			writeChaosSnapshot(t, seed, dev)
		})
	}
}

// writeChaosSnapshot dumps the fault counters as JSON when the CI chaos
// job asks for an artifact via SEEDEX_CHAOS_SNAPSHOT.
func writeChaosSnapshot(t *testing.T, seed int64, dev *Device) {
	path := os.Getenv("SEEDEX_CHAOS_SNAPSHOT")
	if path == "" {
		return
	}
	doc := struct {
		Seed   int64         `json:"seed"`
		Health faults.Health `json:"health"`
	}{Seed: seed, Health: dev.Health()}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatalf("write snapshot %s: %v", path, err)
	}
	t.Logf("fault-counter snapshot written to %s", path)
}

// TestChaosEachClassAlone drives each fault class individually at a high
// rate, asserting equivalence and that the class's dedicated containment
// path actually fired.
func TestChaosEachClassAlone(t *testing.T) {
	classes := []struct {
		name string
		set  func(c *faults.Config)
		// detects: the class surfaces as per-response validation failures.
		detects bool
		// retries: the class surfaces as batch-level retry attempts.
		retries bool
	}{
		{"corrupt", func(c *faults.Config) { c.Corrupt = 0.5 }, true, false},
		{"flip", func(c *faults.Config) { c.Flip = 0.5 }, true, false},
		{"drop", func(c *faults.Config) { c.Drop = 0.5 }, true, false},
		{"reorder", func(c *faults.Config) { c.Reorder = 0.5 }, true, false},
		{"stall", func(c *faults.Config) { c.Stall = 0.5 }, false, true},
		{"core-fail", func(c *faults.Config) { c.CoreFail = 0.5 }, false, true},
	}
	for _, tc := range classes {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BatchSize = 25
			cfg.FPGAThreads = 2
			cfg.TimeScale = 0.05
			cfg.DeviceTimeout = 5 * time.Millisecond
			cfg.RetryBackoff = 50 * time.Microsecond
			cfg.Faults = faults.Config{Seed: 99, StallFor: 20 * time.Millisecond}
			tc.set(&cfg.Faults)
			cfg.Breaker = faults.BreakerConfig{TripRatio: 2}
			dev := NewDevice(cfg)
			reqs := makeRequests(300, 5)
			resps := Run(cfg, dev, reqs)
			assertFullBand(t, cfg, reqs, resps)
			if dev.Injector().Counters().Total() == 0 {
				t.Fatal("class never injected")
			}
			if tc.detects && dev.DeviceFaults.Load() == 0 {
				t.Fatal("class injected but nothing was detected")
			}
			if tc.retries && dev.DeviceRetries.Load() == 0 {
				t.Fatal("class injected but no attempt was retried")
			}
		})
	}
}

// TestChaosReplayDeterminism: with one FPGA thread the whole chaos run is
// a pure function of (seed, workload): injected counters, detected
// faults, retries and completed batches replay exactly.
func TestChaosReplayDeterminism(t *testing.T) {
	run := func() (faults.Counters, int64, int64, int64) {
		cfg := DefaultConfig()
		cfg.BatchSize = 32
		cfg.FPGAThreads = 1
		cfg.TimeScale = 0.02
		cfg.DeviceTimeout = 5 * time.Millisecond
		cfg.RetryBackoff = 20 * time.Microsecond
		cfg.Faults = faults.Uniform(21, 0.05)
		cfg.Faults.StallFor = 20 * time.Millisecond
		cfg.Breaker = faults.BreakerConfig{TripRatio: 2}
		dev := NewDevice(cfg)
		reqs := makeRequests(400, 6)
		resps := Run(cfg, dev, reqs)
		assertFullBand(t, cfg, reqs, resps)
		return dev.Injector().Counters(), dev.DeviceFaults.Load(),
			dev.DeviceRetries.Load(), dev.BatchesRun
	}
	c1, d1, r1, b1 := run()
	c2, d2, r2, b2 := run()
	if c1 != c2 || d1 != d2 || r1 != r2 || b1 != b2 {
		t.Fatalf("chaos run did not replay: (%+v,%d,%d,%d) vs (%+v,%d,%d,%d)",
			c1, d1, r1, b1, c2, d2, r2, b2)
	}
	if c1.Total() == 0 || d1 == 0 {
		t.Fatalf("replay test injected/detected nothing: %+v detected=%d", c1, d1)
	}
}

// TestChaosBreakerDegradeRecover drives the fault rate past the breaker
// threshold and watches the full degradation cycle: trip into host-only
// mode (visible in Stats and Health), then — after the fault clears and
// the cooldown elapses — half-open probing re-admits the device and the
// breaker closes.
func TestChaosBreakerDegradeRecover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 20
	cfg.FPGAThreads = 2
	cfg.TimeScale = 0.02
	cfg.MaxAttempts = 2
	cfg.RetryBackoff = 20 * time.Microsecond
	cfg.Faults = faults.Config{Seed: 17, CoreFail: 1}
	cfg.Breaker = faults.BreakerConfig{
		Window: 16, MinSamples: 4, TripRatio: 0.5,
		Cooldown: 20 * time.Millisecond, ProbeSuccesses: 2,
	}
	dev := NewDevice(cfg)

	// Phase 1: every device attempt core-fails; the breaker must trip and
	// the workload must degrade to host-only — still bit-identical.
	reqs := makeRequests(400, 7)
	resps := Run(cfg, dev, reqs)
	assertFullBand(t, cfg, reqs, resps)
	if trips := dev.BreakerTrips.Load(); trips == 0 {
		t.Fatal("sustained core failures never tripped the breaker")
	}
	if ho := dev.HostOnly.Load(); ho == 0 {
		t.Fatal("tripped breaker served no extensions host-only")
	}
	h := dev.Health()
	if !h.Degraded {
		t.Fatalf("health not degraded after trip: %+v", h)
	}
	t.Logf("degraded: %+v", h)

	// Phase 2: the fault clears; after the cooldown, half-open probes must
	// re-admit the device and close the breaker.
	dev.Injector().SetRate(faults.ClassCoreFail, 0)
	time.Sleep(cfg.Breaker.Cooldown + 5*time.Millisecond)
	if st := dev.Breaker().State(); st != faults.HalfOpen {
		t.Fatalf("post-cooldown state %v, want half-open", st)
	}
	before := dev.BatchesRun
	reqs2 := makeRequests(400, 8)
	resps2 := Run(cfg, dev, reqs2)
	assertFullBand(t, cfg, reqs2, resps2)
	if st := dev.Breaker().State(); st != faults.Closed {
		t.Fatalf("breaker did not close after recovery: %v", st)
	}
	if dev.BatchesRun <= before {
		t.Fatal("recovered device ran no batches")
	}
	if h := dev.Health(); h.Degraded {
		t.Fatalf("health still degraded after recovery: %+v", h)
	}
	t.Logf("recovered: %+v", dev.Health())
}

// TestRunContextCancellation: cancelling the context aborts a run
// promptly — the producer stops, in-flight device waits and backoffs
// unwind — even though the workload would otherwise occupy the device
// for a long time.
func TestRunContextCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 20
	cfg.FPGAThreads = 2
	cfg.TimeScale = 2000 // slow enough that a full run takes far longer
	dev := NewDevice(cfg)
	reqs := makeRequests(400, 9)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := dev.Run(ctx, reqs)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return within 5s")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancellation took %v", el)
	}
	if dev.BatchesRun >= int64(len(reqs)/cfg.BatchSize) {
		t.Fatalf("cancelled run still processed all %d batches", dev.BatchesRun)
	}
}
