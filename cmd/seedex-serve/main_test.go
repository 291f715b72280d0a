package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"seedex/internal/bwamem"
	"seedex/internal/genome"
	"seedex/internal/refstore"
)

// TestServeLifecycle boots the daemon on an ephemeral port, runs a
// request through it, and checks that SIGTERM produces a graceful drain
// and a clean exit.
func TestServeLifecycle(t *testing.T) {
	var stderr bytes.Buffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-band", "16", "-flush", "1ms"}, &stderr, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("run exited before ready: %v\nstderr: %s", err, stderr.String())
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	body := `{"jobs":[{"query":"ACGTACGTACGT","target":"ACGTACGTACGTAA","h0":30}]}`
	resp, err := http.Post(base+"/v1/extend", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/extend: %v", err)
	}
	var out struct {
		Results []struct {
			Global int `json:"global"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("extend: status %d, %d results", resp.StatusCode, len(out.Results))
	}
	if out.Results[0].Global <= 30 {
		t.Errorf("global score %d, want > h0 for a matching extension", out.Results[0].Global)
	}

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status=%v", err, resp)
	} else {
		resp.Body.Close()
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned error after SIGTERM: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not exit after SIGTERM\nstderr: %s", stderr.String())
	}
	log := stderr.String()
	for _, want := range []string{"listening on", "draining", "served"} {
		if !strings.Contains(log, want) {
			t.Errorf("stderr missing %q:\n%s", want, log)
		}
	}
}

// TestServeBadFlags checks flag validation paths without binding a port.
func TestServeBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-extender", "bogus"}, &stderr, nil); err == nil {
		t.Fatal("unknown extender accepted")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the bad extender", err)
	}
	// Retired flags: /v1/map is served from -index-store alone, the daemon
	// serves the software engines only, through one pipeline.
	for _, flag := range []string{"-prefilter", "-prefilter-threshold", "-ref", "-index",
		"-chaos", "-chaos-seed", "-route-policy", "-shards"} {
		if err := run([]string{flag}, &stderr, nil); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
	}
	// A band below 1 is rejected before the listener binds.
	if err := run([]string{"-band", "0"}, &stderr, nil); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("-band 0: want a band range error, got %v", err)
	}
}

// TestServeIndexStore boots the daemon from a checksummed container
// index, maps a read, hot-reloads via SIGHUP, and checks the lifecycle
// banners plus the flag validation paths.
func TestServeIndexStore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sb strings.Builder
	for i := 0; i < 1200; i++ {
		sb.WriteByte("ACGT"[rng.Intn(4)])
	}
	seq := sb.String()
	ref, ix, err := bwamem.BuildIndex([]bwamem.Contig{{Name: "chr1", Seq: genome.Encode(seq)}})
	if err != nil {
		t.Fatal(err)
	}
	store := t.TempDir() + "/ref.rix"
	if _, err := refstore.WriteFile(store, ref, ix); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-index-store", store, "-flush", "1ms"}, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("run exited before ready: %v\nstderr: %s", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	read := seq[200:350]
	body := fmt.Sprintf(`{"reads":[{"name":"r1","seq":%q}]}`, read)
	resp, err := http.Post(base+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/map: %v", err)
	}
	var out struct {
		Results []struct {
			Mapped bool `json:"mapped"`
			RName  string
			Pos    int
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("map: status %d, %d results", resp.StatusCode, len(out.Results))
	}
	if !out.Results[0].Mapped || out.Results[0].RName != "chr1" || out.Results[0].Pos != 201 {
		t.Errorf("mapping = %+v, want mapped at chr1:201", out.Results[0])
	}

	// SIGHUP swaps in a fresh generation of the same file.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		var met struct {
			Index *struct {
				Generation uint64 `json:"generation"`
				Reloads    int64  `json:"reloads"`
			} `json:"index"`
		}
		if err := json.NewDecoder(mresp.Body).Decode(&met); err != nil {
			t.Fatalf("decoding /metrics: %v", err)
		}
		mresp.Body.Close()
		if met.Index == nil {
			t.Fatal("/metrics has no index section")
		}
		if met.Index.Generation >= 2 && met.Index.Reloads >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never landed: %+v", met.Index)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Mapping is unchanged across the swap.
	resp, err = http.Post(base+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/map after reload: %v status=%v", err, resp)
	}
	resp.Body.Close()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned error: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not exit after SIGTERM\nstderr: %s", stderr.String())
	}
	log := stderr.String()
	for _, want := range []string{"serving from index store", "generation 2 live", "index store summary"} {
		if !strings.Contains(log, want) {
			t.Errorf("stderr missing %q:\n%s", want, log)
		}
	}

	// Flag validation.
	if err := run([]string{"-index-store", "/nonexistent/ref.rix"}, &stderr, nil); err == nil {
		t.Fatal("missing index store accepted")
	}
}
