package server

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seedex/internal/faults"
	"seedex/internal/obs"
	"seedex/internal/refstore"
)

// waitFlightDump waits for the watcher's automatic dump named for reason
// in dir and checks the trigger its meta.json records.
func waitFlightDump(t *testing.T, dir, reason string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var path string
	for path == "" {
		if m, _ := filepath.Glob(filepath.Join(dir, "flight-*-"+reason+"*.tar.gz")); len(m) > 0 {
			path = m[0]
		} else if time.Now().After(deadline) {
			t.Fatalf("no automatic %s dump in %s", reason, dir)
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(zr)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			t.Fatalf("%s has no meta.json", path)
		}
		if err != nil {
			t.Fatal(err)
		}
		if h.Name != "meta.json" {
			continue
		}
		var meta struct {
			Reason string `json:"reason"`
		}
		if err := json.NewDecoder(tr).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		if meta.Reason != reason {
			t.Fatalf("%s records reason %q, want %q", path, meta.Reason, reason)
		}
		return
	}
}

// TestFlightWatcherTriggers: with the recorder armed, the degradation
// watcher dumps on its own when one of its counters moves — a device
// engine's breaker trip, an index reload that rolled back.
func TestFlightWatcherTriggers(t *testing.T) {
	flight := func(t *testing.T) (Config, string) {
		dir := t.TempDir()
		return Config{Flight: obs.FlightConfig{Dir: dir, MinInterval: time.Millisecond}, FlightPoll: 5 * time.Millisecond}, dir
	}

	t.Run("breaker-trip", func(t *testing.T) {
		cfg, dir := flight(t)
		eng := chaosEngine(faults.Uniform(containmentSeed(t), 0.9))
		cfg.Extender = eng
		cfg.Batch = BatcherConfig{MaxBatch: 32, FlushInterval: time.Millisecond, Workers: 2}
		_, ts := newTestServer(t, cfg)
		deadline := time.Now().Add(10 * time.Second)
		for round := int64(0); eng.Health().Trips == 0; round++ {
			if time.Now().After(deadline) {
				t.Fatal("breaker never tripped at fault rate 0.9")
			}
			resp := postJSON(t, ts.URL+"/v1/extend", ExtendRequest{Jobs: testProblems(32, 100, 9000+round)})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		waitFlightDump(t, dir, "breaker-trip")
	})

	t.Run("reload-rollback", func(t *testing.T) {
		cfg, dir := flight(t)
		fx := newRefStoreFixture(t, 34)
		store, err := refstore.Open(fx.path, refstore.Options{MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(store.Close)
		newStoreServer(t, store, cfg)
		// A truncated publish, the way a broken publisher would leave it.
		tmp := fx.path + ".next"
		if err := os.WriteFile(tmp, fx.refBytes[:len(fx.refBytes)/4], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, fx.path); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Reload(); err == nil {
			t.Fatal("reload of a truncated container succeeded")
		}
		waitFlightDump(t, dir, "reload-rollback")
	})
}
