package main

// metrics.go declares every metric the benchmark emits, once. The same
// names, units, directions and bounds are in ../BENCHMARK.json, which the
// driver reads; `compare -validate-only` and the tests hold the two to
// each other.

import (
	"encoding/json"
	"fmt"
	"os"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a pipeline operator sees. Failures are not a metric
// here: they are the attempted/failed/correct fields of every result,
// because a metric whose good value is 0 has no ratio to bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_p90_99_mean_ms", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
}

// perLayer is the layer budget. "T" rows come from the traced in-process
// replay, "E" rows from the daemon's own /metrics and /proc around the
// daemon window of the traced run.
var perLayer = []metricDef{
	{Name: "server.transport_us_per_req", Unit: "us", Better: "lower"},
	{Name: "server.handler_us_per_req", Unit: "us", Better: "lower"},
	{Name: "server.self_us_per_req", Unit: "us", Better: "lower"},
	{Name: "server.decode_us_per_req", Unit: "us", Better: "lower"},
	{Name: "server.encode_us_per_req", Unit: "us", Better: "lower"},
	{Name: "server.map_self_us_per_read", Unit: "us", Better: "lower"},
	{Name: "server.batches", Unit: "count", Better: "lower"},
	{Name: "server.batch_occupancy_mean", Unit: "count", Better: "higher"},
	{Name: "server.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.jobs_rejected", Unit: "count", Better: "lower"},
	{Name: "obs.overhead_us_per_req", Unit: "us", Better: "lower"},
	{Name: "obs.spans_per_req", Unit: "count", Better: "lower"},
	{Name: "core.check_batch_us_per_job", Unit: "us", Better: "lower"},
	{Name: "core.check_self_us_per_job", Unit: "us", Better: "lower"},
	{Name: "core.rerun_us_per_job", Unit: "us", Better: "lower"},
	{Name: "core.pass_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.threshold_only_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.rerun_rate", Unit: "ratio", Better: "lower"},
	{Name: "align.banded_batch_us_per_job", Unit: "us", Better: "lower"},
	{Name: "align.banded_batch_mcells_per_s", Unit: "Mcells/s", Better: "higher"},
	{Name: "align.full_us_per_job", Unit: "us", Better: "lower"},
	{Name: "align.lane_utilization", Unit: "ratio", Better: "higher"},
	{Name: "bwamem.map_us_per_read", Unit: "us", Better: "lower"},
	{Name: "fmindex.seed_us_per_read", Unit: "us", Better: "lower"},
	{Name: "chain.build_us_per_read", Unit: "us", Better: "lower"},
	{Name: "bwamem.extend_us_per_read", Unit: "us", Better: "lower"},
	{Name: "bwamem.extensions_per_read", Unit: "count", Better: "lower"},
	{Name: "sam.render_us_per_read", Unit: "us", Better: "lower"},
	{Name: "bwamem.self_us_per_read", Unit: "us", Better: "lower"},
	{Name: "bwamem.true_pos_share", Unit: "ratio", Better: "higher"},
	{Name: "fmindex.build_s", Unit: "s", Better: "lower"},
	{Name: "refstore.publish_s", Unit: "s", Better: "lower"},
	{Name: "refstore.open_s", Unit: "s", Better: "lower"},
	{Name: "refstore.file_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_ms_per_kop", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.requests", Unit: "count", Better: "higher"},
	{Name: "loadgen.slow_slice_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// declaredFor returns the metrics a run of that kind must print: the
// end-to-end ones for trace 0, the per-layer ones for trace 1.
func declaredFor(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// metricValue is one measured value as printed on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the declared metrics out of everything a run measured; a
// declared metric the run did not produce is an error, never a silent 0.
func pick(defs []metricDef, measured map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was declared but not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
