package main

// compare.go is the tool for the A/A criterion and for every later A/B:
// it reads two results files (the records `-out` appends), applies each
// end-to-end metric's bound from BENCHMARK.json, and says same, worse or
// unresolved per (workload, metric). -validate-only checks instead that
// BENCHMARK.json, the metrics this program declares and a results file
// agree.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
)

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bfPath := fs.String("benchmark", benchmarkFilePath, "BENCHMARK.json to take names, units, directions and bounds from")
	validateOnly := fs.Bool("validate-only", false, "check that BENCHMARK.json and one results file agree; compare nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := loadBenchmarkFile(*bfPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	if *validateOnly {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: benchmark compare -validate-only RESULTS.jsonl")
			return 2
		}
		recs, err := readRecords(fs.Arg(0))
		if err == nil {
			err = validate(bf, recs)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s and %s agree: %d workloads, %d end-to-end and %d per-layer metrics, %d records\n",
			*bfPath, fs.Arg(0), len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer), len(recs))
		return 0
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	if compare(stdout, bf, a, b) {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// validate holds BENCHMARK.json, the program's declarations and the
// records to each other: workload and metric names, units, directions and
// bounds; every record carries every metric declared for its kind of run.
func validate(bf benchmarkFile, recs []record) error {
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		return fmt.Errorf("end_to_end of BENCHMARK.json is not what the benchmark declares:\n file    %+v\n program %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		return fmt.Errorf("per_layer of BENCHMARK.json is not what the benchmark declares:\n file    %+v\n program %+v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, sp := range specs {
		have = append(have, sp.name)
	}
	if !slices.Equal(names, have) {
		return fmt.Errorf("workloads of BENCHMARK.json are %v, the benchmark has %v", names, have)
	}
	for i, r := range recs {
		if !slices.Contains(names, r.Workload) {
			return fmt.Errorf("record %d: workload %q is not declared", i+1, r.Workload)
		}
		// bf's lists equal the program's, checked above.
		if _, err := pick(declaredFor(r.Trace), r.Metrics); err != nil {
			return fmt.Errorf("record %d (%s, trace %d): %w", i+1, r.Workload, r.Trace, err)
		}
	}
	return nil
}

// values collects one metric of one workload over the records of one kind
// of run.
func values(recs []record, workload string, trace int, metric string) []float64 {
	var v []float64
	for _, r := range recs {
		if x, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			v = append(v, x)
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

// verdict applies one bound. B is worse when its median is worse than A's
// by more than the bound. Where either side's own spread is wider than
// the bound the pair is unresolved, not the same — unless every run of B
// reads better than every run of A.
func verdict(d metricDef, a, b []float64) (worseBy float64, v string) {
	ma, mb := median(a), median(b)
	lower := d.Better == "lower"
	if lower {
		worseBy = (mb - ma) / ma
	} else {
		worseBy = (ma - mb) / ma
	}
	switch {
	case worseBy > d.Bound:
		return worseBy, "worse"
	case max(spread(a), spread(b)) <= d.Bound:
		return worseBy, "same"
	case lower && slices.Max(b) < slices.Min(a), !lower && slices.Min(b) > slices.Max(a):
		return worseBy, "same"
	}
	return worseBy, "unresolved"
}

// compare prints one row per (workload, metric) and reports whether any
// end-to-end metric came out worse. Per-layer rows have no bound and so
// no verdict; they say where a difference sits.
func compare(w io.Writer, bf benchmarkFile, a, b []record) (anyWorse bool) {
	fmt.Fprintf(w, "%-20s %-34s %14s %14s %8s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "worse by", "bound", "verdict (runs A/B, spread A/B)")
	for _, wl := range bf.Workloads {
		for trace, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
			for _, d := range defs {
				va, vb := values(a, wl.Name, trace, d.Name), values(b, wl.Name, trace, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				if trace == 1 {
					fmt.Fprintf(w, "%-20s %-34s %14.4f %14.4f %8.3f %9s %7s  - (%d/%d, %.1f%%/%.1f%%)\n",
						wl.Name, d.Name, ma, mb, mb/ma, "", "", len(va), len(vb), 100*spread(va), 100*spread(vb))
					continue
				}
				worseBy, v := verdict(d, va, vb)
				anyWorse = anyWorse || v == "worse"
				fmt.Fprintf(w, "%-20s %-34s %14.4f %14.4f %8.3f %8.1f%% %6.0f%%  %s (%d/%d, %.1f%%/%.1f%%)\n",
					wl.Name, d.Name, ma, mb, mb/ma, 100*worseBy, 100*d.Bound, v, len(va), len(vb), 100*spread(va), 100*spread(vb))
			}
		}
	}
	return anyWorse
}
