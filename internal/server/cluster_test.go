package server

import (
	"encoding/json"
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

// TestShardedMixedPolicyRace hammers a 4-shard cluster with concurrent
// clients under the least-loaded router (run with -race). Every result
// must be bit-identical to the full-band kernel regardless of which shard
// computed it, and the shard accounting must balance when the dust
// settles.
func TestShardedMixedPolicyRace(t *testing.T) {
	const (
		shards     = 4
		clients    = 8
		reqsPer    = 5
		jobsPerReq = 16
	)
	t.Run("least-loaded", func(t *testing.T) {
		s, ts := newTestServer(t, Config{
			Shards:      shards,
			NewExtender: func(int) align.Extender { return core.New(20) },
			Batch:       BatcherConfig{MaxBatch: 16, FlushInterval: 200 * time.Microsecond, Workers: 2},
		})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < reqsPer; r++ {
					verifyExtend(t, ts.URL, testProblems(jobsPerReq, 90, int64(1000+c*reqsPer+r)))
				}
			}(c)
		}
		wg.Wait()

		// Accounting: every admitted job was computed (nothing had a
		// deadline), nothing is left in flight, and the routing tier
		// made exactly one decision per request.
		var accepted, completed, routed, rerouted int64
		for _, snap := range s.scrape().shards {
			accepted += snap.n[smAccepted]
			completed += snap.n[smCompleted]
			routed += snap.n[smRouted]
			rerouted += snap.n[smRerouted]
			if snap.inflight != 0 {
				t.Errorf("shard %d still reports %d in flight", snap.id, snap.inflight)
			}
		}
		if want := int64(clients * reqsPer * jobsPerReq); accepted != want || completed != want {
			t.Errorf("accepted=%d completed=%d, want %d each (rerouted=%d)", accepted, completed, want, rerouted)
		}
		if want := int64(clients * reqsPer); routed != want {
			t.Errorf("routed=%d decisions, want %d (one per request)", routed, want)
		}
	})
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

// TestShardChaosContainment proves a breaker trip is a single-shard
// event: with shard 0's device core-failing every attempt and shard 1's
// healthy, shard 0 trips into host-only mode, the router routes around
// it, shard 1 keeps serving on its device, and every result served
// before, during and after the trip is bit-identical to the full-band
// kernel.
func TestShardChaosContainment(t *testing.T) {
	engs := []*driver.Engine{
		chaosEngine(faults.Config{Seed: containmentSeed(t), CoreFail: 1}),
		chaosEngine(faults.Config{}),
	}
	s, ts := newTestServer(t, Config{
		Shards:      2,
		NewExtender: func(i int) align.Extender { return engs[i] },
		Batch:       BatcherConfig{MaxBatch: 32, FlushInterval: time.Millisecond, Workers: 2},
	})

	drive := func(rounds, clients int, seed int64) {
		t.Helper()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					verifyExtend(t, ts.URL, testProblems(32, 110, seed+int64(c*rounds+r)))
				}
			}(c)
		}
		wg.Wait()
	}

	// Phase 1: concurrent traffic spreads over both shards; shard 0's
	// engine core-fails every device attempt, so its checker falls back
	// to the host (exact results) and its breaker trips.
	deadline := time.Now().Add(10 * time.Second)
	for round := int64(0); !s.shards[0].degraded(); round++ {
		if time.Now().After(deadline) {
			t.Fatal("shard 0's breaker never tripped under sustained core failures")
		}
		drive(1, 4, 2000+round*100)
	}
	if t.Failed() {
		t.FailNow() // a miscompare inside drive already tells the story
	}

	// Phase 2: the trip is contained. Shard 1's breaker stays closed,
	// the router avoids shard 0, and served results stay exact.
	before := s.scrape().shards
	drive(2, 4, 5000)
	after := s.scrape().shards
	if s.shards[1].degraded() || after[1].health.Breaker != "closed" {
		t.Fatalf("healthy shard caught the neighbor's trip: %+v", after[1])
	}
	if got := after[0].n[smAccepted] - before[0].n[smAccepted]; got != 0 && !s.shards[0].degraded() {
		// Shard 0 may have recovered mid-phase via half-open probes (its
		// injector still fails everything, so it re-trips); only a still-
		// degraded shard must see no admissions.
		t.Logf("shard 0 admitted %d during phase 2 (breaker cycling)", got)
	}
	if after[0].n[smAvoided] == before[0].n[smAvoided] {
		t.Fatal("router never avoided the degraded shard")
	}
	if after[1].n[smAccepted] == before[1].n[smAccepted] {
		t.Fatal("healthy shard served nothing while its peer was down")
	}

	// The cluster reports the partial degradation, still ready for
	// traffic: 200 degraded with exactly one shard out.
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("partially degraded cluster answered %d, want 200", code)
	}
	if s.shards[0].degraded() && (health["status"] != "degraded" || health["shards_degraded"] != "1") {
		t.Fatalf("healthz = %v, want degraded with shards_degraded=1", health)
	}

	// Fault containment stats live on the right shard: shard 0's engine
	// saw faults and trips, shard 1's saw none.
	if engs[0].Health().Trips == 0 {
		t.Fatal("shard 0's breaker recorded no trips")
	}
	if engs[1].Device().Injector().Counters().Total() != 0 {
		t.Fatal("healthy shard's injector fired — fault domains are not isolated")
	}
}
