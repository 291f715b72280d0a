package main

import (
	"bytes"
	"strings"
	"testing"
)

// BENCHMARK.json is what the driver reads; the declarations in
// metrics.go and workload.go are what the program emits.
func TestBenchmarkFileAgreesWithTheProgram(t *testing.T) {
	bf, err := loadBenchmarkFile(benchmarkFilePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(bf, nil); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bf.Paths)
	}
	runs := 4 + 22*len(bf.Workloads)
	if perRun := 3420 / runs; bf.RunSeconds+15 > perRun {
		t.Errorf("run_seconds %d leaves under 15 s of each run's %d s for set-up and generation", bf.RunSeconds, perRun)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, bf.EndToEnd...), bf.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
}

func rec(workload string, trace int, metric string, v float64) record {
	return record{Workload: workload, Trace: trace, Metrics: map[string]float64{metric: v}}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"inside the bound", lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, "same"},
		{"slower by more than the bound", lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, "worse"},
		{"throughput down by more than the bound", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "worse"},
		{"throughput up", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "same"},
		{"medians close but A's own spread wider than the bound", lower, []float64{8, 10, 12, 14}, []float64{9, 10.5, 12, 13}, "unresolved"},
		{"wide spread but every B run beats every A run", lower, []float64{18, 20, 24, 26}, []float64{8, 10, 12, 14}, "same"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsAWorseRow(t *testing.T) {
	bf, err := loadBenchmarkFile(benchmarkFilePath)
	if err != nil {
		t.Fatal(err)
	}
	a := []record{rec("map_reads", 0, "throughput_ops_s", 1200), rec("map_reads", 0, "throughput_ops_s", 1210)}
	b := []record{rec("map_reads", 0, "throughput_ops_s", 1000), rec("map_reads", 0, "throughput_ops_s", 1005)}
	var out bytes.Buffer
	if !compare(&out, bf, a, b) {
		t.Fatalf("a 17%% throughput drop was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Fatalf("no worse row:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, bf, a, a) {
		t.Fatalf("A against itself came out worse:\n%s", out.String())
	}
}

func TestValidateRefusesARecordMissingAMetric(t *testing.T) {
	bf, err := loadBenchmarkFile(benchmarkFilePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(bf, []record{rec("map_reads", 0, "throughput_ops_s", 1)}); err == nil {
		t.Fatal("a record with one of five end-to-end metrics validated")
	}
	if err := validate(bf, []record{rec("no_such_workload", 0, "throughput_ops_s", 1)}); err == nil {
		t.Fatal("an undeclared workload validated")
	}
}
