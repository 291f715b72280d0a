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
	var meta struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(flightEntry(t, path, "meta.json"), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Reason != reason {
		t.Fatalf("%s records reason %q, want %q", path, meta.Reason, reason)
	}
}

// flightEntry reads one file out of a flight tarball.
func flightEntry(t *testing.T, path, name string) []byte {
	t.Helper()
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
		if err != nil {
			t.Fatalf("%s has no %s (%v)", path, name, err)
		}
		if h.Name == name {
			data, err := io.ReadAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
}

// TestFlightWatcherTriggers: with the recorder armed, the degradation
// watcher dumps on its own when one of its counters moves — an index
// reload that rolled back.
func TestFlightWatcherTriggers(t *testing.T) {
	flight := func(t *testing.T) (Config, string) {
		dir := t.TempDir()
		return Config{Flight: obs.FlightConfig{Dir: dir, MinInterval: time.Millisecond}, FlightPoll: 5 * time.Millisecond}, dir
	}

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
