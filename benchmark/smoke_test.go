package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke builds the two real binaries and puts every workload through
// both kinds of run on tiny inputs: a 1 s end-to-end window and a traced
// run capped at 50 requests per endpoint. It fails when a change to the
// program breaks the benchmark's surface (a flag, the wire format, the
// /metrics document, a function of layers.go) or its results.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	env, err := newEnvironment(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]string{}
	for _, sp := range specs {
		w := mustGenerate(t, tiny(sp), 1)
		hashes[sp.name] = w.primary().sha256

		endRun, err := env.runOnce(ctx, w, plan{length: time.Second, setups: 2, window: time.Second})
		if err != nil {
			t.Fatalf("%s end-to-end: %v", sp.name, err)
		}
		if !endRun.Correct || endRun.Failed != 0 || endRun.Attempted == 0 {
			t.Errorf("%s end-to-end: correct=%v attempted=%d failed=%d: %s", sp.name, endRun.Correct, endRun.Attempted, endRun.Failed, endRun.FirstError)
		}
		for _, d := range endToEnd {
			if v, ok := endRun.Metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", sp.name, d.Name, v, ok)
			}
		}

		traced, err := env.runOnce(ctx, w, plan{length: time.Second, setups: 1, window: 500 * time.Millisecond,
			trace: &traceLimits{extendBudget: 5 * time.Second, mapBudget: 5 * time.Second, maxRequests: 50}})
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d: %s", sp.name, traced.Correct, traced.Failed, traced.FirstError)
		}
		if _, err := pick(perLayer, traced.Metrics); err != nil {
			t.Errorf("%s traced: %v", sp.name, err)
		}
		for _, name := range []string{"server.handler_us_per_req", "core.check_batch_us_per_job", "align.banded_batch_us_per_job",
			"bwamem.map_us_per_read", "fmindex.seed_us_per_read", "fmindex.build_s", "proc.cpu_util", "core.pass_rate", "bwamem.true_pos_share"} {
			if traced.Metrics[name] <= 0 {
				t.Errorf("%s traced: %s = %v, want > 0", sp.name, name, traced.Metrics[name])
			}
		}
		if sum := traced.Metrics["core.pass_rate"] + traced.Metrics["core.rerun_rate"]; sum < 0.999999 || sum > 1.000001 {
			t.Errorf("%s: pass_rate %v + rerun_rate %v != 1", sp.name, traced.Metrics["core.pass_rate"], traced.Metrics["core.rerun_rate"])
		}
		checkSpanFile(t, traced.SpanFile)
	}
	if hashes["extend_bulk_strict"] != hashes["extend_bulk_paper"] {
		t.Errorf("bulk workloads were driven with different bodies: %v", hashes)
	}
}

// checkSpanFile reads the spans back: every line has a name and an
// interval, and every parent is a span of the same request.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.Name == "" || s.EndNs < s.StartNs || s.Request == 0 {
			t.Errorf("%s: bad span %+v", path, s)
		}
		if s.Parent != 0 && byID[s.Parent].Request != s.Request {
			t.Errorf("%s: span %+v has a parent in request %d", path, s, byID[s.Parent].Request)
		}
	}
	for _, want := range []string{"loadgen.request", "server.handler", "server.handler_obs", "server.decode", "core.extend_batch",
		"core.check_batch", "align.banded_batch", "align.full", "server.encode", "server.map_handler", "bwamem.map",
		"fmindex.seed", "bwamem.extend", "chain.build", "sam.render"} {
		if !names[want] {
			t.Errorf("%s: no %s span", path, want)
		}
	}
}
