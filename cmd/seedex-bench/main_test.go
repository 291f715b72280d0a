package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchAllSmoke(t *testing.T) {
	var out, stderr bytes.Buffer
	if err := run([]string{"-fig", "all", "-reads", "80", "-ref", "30000"}, &out, &stderr); err != nil {
		t.Fatalf("%v (%s)", err, stderr.String())
	}
	for _, section := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Figure 13", "Figure 14",
		"Figure 15", "Table II", "Figure 16", "Figure 17", "Table III", "Figure 18",
	} {
		if !strings.Contains(out.String(), section) {
			t.Fatalf("output missing %q section", section)
		}
	}
}

func TestBenchSingleFigure(t *testing.T) {
	var out, stderr bytes.Buffer
	if err := run([]string{"-fig", "t3"}, &out, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Rerun core") {
		t.Fatalf("table III content missing: %q", out.String())
	}
	if strings.Contains(out.String(), "Figure 2") {
		t.Fatal("unrequested sections printed")
	}
	// Static figures must not build a workload.
	if strings.Contains(stderr.String(), "building workload") {
		t.Fatal("workload built unnecessarily")
	}
}

func TestBenchExtendJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_extend.json")
	var out, stderr bytes.Buffer
	err := run([]string{"-fig", "extend", "-reads", "40", "-ref", "30000",
		"-extend-rounds", "1", "-extend-json", path, "-extend-pr", "test-run"}, &out, &stderr)
	if err != nil {
		t.Fatalf("%v (%s)", err, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("benchmark JSON not written: %v", err)
	}
	var hist struct {
		Runs []struct {
			PR         string `json:"pr"`
			ReadLen    int    `json:"read_len"`
			GoMaxProcs int    `json:"gomaxprocs"`
			NumCPU     int    `json:"num_cpu"`
			GoVersion  string `json:"go_version"`
			Kernels    []struct {
				Kernel      string  `json:"kernel"`
				NsPerOp     float64 `json:"ns_per_op"`
				CellsPerSec float64 `json:"cells_per_sec"`
				AllocsPerOp float64 `json:"allocs_per_op"`
			} `json:"kernels"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(hist.Runs) != 1 {
		t.Fatalf("history has %d runs, want 1", len(hist.Runs))
	}
	rep := hist.Runs[0]
	if rep.PR != "test-run" {
		t.Fatalf("run labeled %q, want test-run", rep.PR)
	}
	if rep.ReadLen != 150 {
		t.Fatalf("read length %d, want 150", rep.ReadLen)
	}
	seen := map[string]bool{}
	for _, k := range rep.Kernels {
		seen[k.Kernel] = true
		if k.NsPerOp <= 0 || k.CellsPerSec <= 0 {
			t.Fatalf("kernel %s has empty measurements: %+v", k.Kernel, k)
		}
	}
	for _, want := range []string{"full/seed", "full/workspace", "banded/seed",
		"banded/workspace", "checked/pooled", "checked/workspace",
		"banded/batch", "full/batch", "checked/batch/paper", "checked/batch/strict",
		"checked/batch/paper+rerun", "checked/batch/strict+rerun"} {
		if !seen[want] {
			t.Fatalf("kernel %q missing from report (have %v)", want, seen)
		}
	}
	if rep.GoMaxProcs <= 0 || rep.NumCPU <= 0 || rep.GoVersion == "" {
		t.Fatalf("run entry lacks its environment stamp: gomaxprocs=%d num_cpu=%d go_version=%q",
			rep.GoMaxProcs, rep.NumCPU, rep.GoVersion)
	}

	// Append-only: a second run with a new label grows the history.
	err = run([]string{"-fig", "extend", "-reads", "40", "-ref", "30000",
		"-extend-rounds", "1", "-extend-json", path, "-extend-pr", "second"}, &out, &stderr)
	if err != nil {
		t.Fatalf("second run: %v (%s)", err, stderr.String())
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatalf("invalid JSON after append: %v", err)
	}
	if len(hist.Runs) != 2 || hist.Runs[0].PR != "test-run" || hist.Runs[1].PR != "second" {
		t.Fatalf("history after append: %d runs (%v), want [test-run second]",
			len(hist.Runs), hist.Runs)
	}
}

// TestExtendHistoryLegacy converts a pre-history single-object file into
// runs[0] labeled "legacy" on the first append.
func TestExtendHistoryLegacy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_extend.json")
	legacy := `{"read_len": 150, "problems": 10, "band": 21, "kernels": [{"kernel": "banded/batch", "ns_per_op": 1, "cells_per_sec": 2, "allocs_per_op": 0}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, stderr bytes.Buffer
	err := run([]string{"-fig", "extend", "-reads", "40", "-ref", "30000",
		"-extend-rounds", "1", "-extend-json", path, "-extend-pr", "next"}, &out, &stderr)
	if err != nil {
		t.Fatalf("%v (%s)", err, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		Runs []struct {
			PR      string `json:"pr"`
			ReadLen int    `json:"read_len"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Runs) != 2 || hist.Runs[0].PR != "legacy" || hist.Runs[1].PR != "next" {
		t.Fatalf("legacy conversion: got %+v, want [legacy next]", hist.Runs)
	}
}

// TestBenchMapJSON: -fig map appends one labeled run per invocation with
// the four stage rows, and the stage times account for the total.
func TestBenchMapJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_map.json")
	for _, pr := range []string{"first", "second"} {
		var out, stderr bytes.Buffer
		err := run([]string{"-fig", "map", "-reads", "40", "-ref", "30000", "-map-json", path, "-map-pr", pr}, &out, &stderr)
		if err != nil {
			t.Fatalf("%v (%s)", err, stderr.String())
		}
		if !strings.Contains(out.String(), "map/seed") {
			t.Fatalf("stage table missing: %q", out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("benchmark JSON not written: %v", err)
	}
	var hist struct {
		Runs []struct {
			PR        string `json:"pr"`
			ReadLen   int    `json:"read_len"`
			Reads     int    `json:"reads"`
			RefLen    int    `json:"ref_len"`
			GoVersion string `json:"go_version"`
			Rows      []struct {
				Stage     string  `json:"stage"`
				NsPerRead float64 `json:"ns_per_read"`
			} `json:"rows"`
			AllocsPerRead  float64 `json:"allocs_per_read"`
			BytesPerRead   float64 `json:"bytes_per_read"`
			CertifiedShare float64 `json:"certified_share"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Runs) != 2 || hist.Runs[0].PR != "first" || hist.Runs[1].PR != "second" {
		t.Fatalf("history = %+v, want runs first, second", hist.Runs)
	}
	last := hist.Runs[1]
	if last.ReadLen != 150 || last.Reads != 40 || last.RefLen != 30000 || last.GoVersion == "" {
		t.Fatalf("run header = %+v", last)
	}
	if last.AllocsPerRead <= 0 || last.BytesPerRead <= 0 {
		t.Fatalf("allocation columns = %v allocs, %v B per read", last.AllocsPerRead, last.BytesPerRead)
	}
	if last.CertifiedShare <= 0 || last.CertifiedShare >= 1 {
		t.Fatalf("certified share = %v, want a share of the extensions", last.CertifiedShare)
	}
	var stages []string
	for _, row := range last.Rows {
		if row.NsPerRead <= 0 {
			t.Fatalf("row %s = %v ns/read", row.Stage, row.NsPerRead)
		}
		stages = append(stages, row.Stage)
	}
	if got := strings.Join(stages, " "); got != "map/seed map/extend map/rest map/total" {
		t.Fatalf("stages = %q", got)
	}
}

func TestBenchBadFlag(t *testing.T) {
	var out, stderr bytes.Buffer
	if err := run([]string{"-nope"}, &out, &stderr); err == nil {
		t.Fatal("unknown flag must error")
	}
	// An unknown -fig entry is an error naming the valid values, raised
	// before any figure runs: a typo beside a valid entry prints nothing.
	// "serve" is such an entry since the load harness moved to benchmark/.
	for _, fig := range []string{"nope", "4,nope", "serve", ""} {
		out.Reset()
		err := run([]string{"-fig", fig}, &out, &stderr)
		if err == nil || !strings.Contains(err.Error(), "valid: ") || !strings.Contains(err.Error(), "extend,map,all") {
			t.Fatalf("-fig %q: err = %v, want an error listing the valid figures", fig, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-fig %q printed before failing: %q", fig, out.String())
		}
	}
}
