package server

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"seedex/internal/align"
	"seedex/internal/core"
	"seedex/internal/driver"
	"seedex/internal/faults"
	"seedex/internal/genome"
)

// chaosEngine builds a device-backed extender with the given chaos
// config and a fast breaker, sized for the micro-batcher's batches.
func chaosEngine(fc faults.Config) *driver.Engine {
	cfg := driver.DefaultConfig()
	cfg.BatchSize = 32
	cfg.TimeScale = 0.01
	cfg.MaxAttempts = 2
	cfg.RetryBackoff = 20 * time.Microsecond
	cfg.DeviceTimeout = 5 * time.Millisecond
	cfg.Faults = fc
	cfg.Faults.StallFor = 20 * time.Millisecond
	cfg.Breaker = faults.BreakerConfig{
		Window: 8, MinSamples: 2, TripRatio: 0.5,
		Cooldown: 30 * time.Millisecond, ProbeSuccesses: 2,
	}
	return driver.NewEngine(cfg)
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// verifyExtend posts one batch of jobs and asserts every served result is
// bit-identical to the scalar full-band reference.
func verifyExtend(t *testing.T, url string, jobs []ExtendJob) {
	t.Helper()
	resp := postJSON(t, url+"/v1/extend", ExtendRequest{Jobs: jobs})
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("extend status %d", resp.StatusCode)
		return
	}
	var out ExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Error(err)
		return
	}
	sc := align.DefaultScoring()
	for i, j := range jobs {
		want := align.Extend(genome.Encode(j.Query), genome.Encode(j.Target), j.H0, sc)
		got := out.Results[i]
		if got.Local != want.Local || got.LocalT != want.LocalT || got.LocalQ != want.LocalQ ||
			got.Global != want.Global || got.GlobalT != want.GlobalT {
			t.Errorf("job %d: served %+v, kernel %+v", i, got, want)
			return
		}
	}
}

// containmentSeed honors the CI chaos matrix: SEEDEX_CHAOS_SEED pins the
// fault-injection seed, otherwise a fixed default runs.
func containmentSeed(t *testing.T) int64 {
	if v := os.Getenv("SEEDEX_CHAOS_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("SEEDEX_CHAOS_SEED=%q: %v", v, err)
		}
		return s
	}
	return 11
}

// TestServerBreakerVisibility drives a device engine's degradation
// through the HTTP surface: under sustained core failures the server
// keeps serving exact results (host containment), the engine's breaker
// trips and its trip and host-only counters reach /metrics through the
// engine's check statistics, and once the fault clears half-open probing
// restores the device. The breaker is the engine's; the server keeps no
// view of its own, so /healthz stays "ok" throughout.
func TestServerBreakerVisibility(t *testing.T) {
	eng := chaosEngine(faults.Config{Seed: 5, CoreFail: 1})
	_, ts := newTestServer(t, Config{
		Extender: eng,
		Batch:    BatcherConfig{MaxBatch: 32, FlushInterval: time.Millisecond, Workers: 2},
	})

	// Phase 1: every device attempt core-fails. Results must still match
	// the full-band kernel, and the breaker must trip.
	verifyExtend(t, ts.URL, testProblems(96, 120, 6))
	if t.Failed() {
		t.FailNow()
	}
	var met struct {
		Checks *core.StatsSnapshot `json:"checks"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &met); code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if met.Checks == nil || met.Checks.BreakerTrips == 0 || met.Checks.HostOnly == 0 {
		t.Fatalf("breaker trips and host-only extensions not visible in /metrics: %+v", met.Checks)
	}
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz under a tripped engine breaker: %d %v, want 200 ok", code, health)
	}

	// Phase 2: clear the fault, wait out the cooldown, push probe traffic.
	eng.Device().Injector().SetRate(faults.ClassCoreFail, 0)
	time.Sleep(35 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		verifyExtend(t, ts.URL, testProblems(64, 100, 7))
		if eng.Device().Breaker().State() == faults.Closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after recovery: %v", eng.Device().Breaker().State())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerChaosEquivalence floods a device-backed server with mixed
// fault classes (kept below the breaker threshold is not required —
// containment must hold either way) and checks every served result
// against the full-band kernel.
func TestServerChaosEquivalence(t *testing.T) {
	eng := chaosEngine(faults.Uniform(1234, 0.05))
	_, ts := newTestServer(t, Config{
		Extender: eng,
		Batch:    BatcherConfig{MaxBatch: 32, FlushInterval: time.Millisecond, Workers: 4},
	})
	jobs := testProblems(256, 110, 8)
	resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: jobs})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out ExtendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	sc := align.DefaultScoring()
	for i, j := range jobs {
		want := align.Extend(genome.Encode(j.Query), genome.Encode(j.Target), j.H0, sc)
		got := out.Results[i]
		if got.Local != want.Local || got.LocalT != want.LocalT || got.LocalQ != want.LocalQ ||
			got.Global != want.Global || got.GlobalT != want.GlobalT {
			t.Fatalf("job %d: served %+v, kernel %+v", i, got, want)
		}
	}
	if eng.Device().Injector().Counters().Total() == 0 {
		t.Fatal("chaos server run injected nothing")
	}
}

// TestDeviceBatchCoalescedRequests: a device-backed worker batch that
// coalesces jobs of several requests (each numbering its jobs from 0) must
// still hand every job its own result — the driver matches device
// responses by tag, so the worker has to keep tags unique per batch.
func TestDeviceBatchCoalescedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Extender: chaosEngine(faults.Config{}),
		// A flush interval far above one request's admission time: the
		// concurrent requests below land in one 32-job batch.
		Batch: BatcherConfig{MaxBatch: 32, FlushInterval: 100 * time.Millisecond, Workers: 1},
	})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			verifyExtend(t, ts.URL, testProblems(8, 110, int64(300+c)))
		}(c)
	}
	wg.Wait()
}
