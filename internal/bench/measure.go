package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// rounds is how many timed passes every in-process row (Fig 3, Fig 17,
// -fig extend, -fig map) takes its median and range over.
const rounds = 5

// timeRounds calls every row once to warm caches, pools and workspaces,
// then makes rounds passes, each calling every row once in the order
// given, so drift over the run reaches all rows alike instead of the last
// ones. A row returns its pass's measures (a kernel sweep its ns/op, an
// Aligner.Run pass its stage times); timeRounds returns each measure's
// samples over the passes sorted ascending, the rows' measures in row
// order.
func timeRounds(rows ...func() []float64) [][]float64 {
	for _, row := range rows {
		row()
	}
	var samples [][]float64
	for r := 0; r < rounds; r++ {
		i := 0
		for _, row := range rows {
			for _, m := range row() {
				if i == len(samples) {
					samples = append(samples, make([]float64, 0, rounds))
				}
				samples[i] = append(samples[i], m)
				i++
			}
		}
	}
	for _, s := range samples {
		sort.Float64s(s)
	}
	return samples
}

// median is the middle of timeRounds' sorted samples.
func median(sorted []float64) float64 { return sorted[len(sorted)/2] }

// perOp is a timeRounds row: the wall time of one sweep call over ops
// operations, per operation.
func perOp(ops int, sweep func() int64) func() []float64 {
	return func() []float64 {
		start := time.Now()
		sweep()
		return []float64{float64(time.Since(start).Nanoseconds()) / float64(ops)}
	}
}

// allocsDuring returns the heap allocations and bytes fn makes on one
// processor after a collection: the steady-state count via the runtime's
// malloc counters (bench is a library, so testing.AllocsPerRun is not
// available).
func allocsDuring(fn func()) (mallocs, bytes uint64) {
	prev := runtime.GOMAXPROCS(1)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	runtime.GOMAXPROCS(prev)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// AppendRun appends rep, labeled pr, to the history file at path and
// returns the number of runs it now holds. A history (BENCH_extend.json,
// BENCH_map.json) is a {"runs": [...]} array, oldest first; a missing file
// is an empty one. The existing entries are written back as the bytes
// they were read as, so an append never rewrites them.
func AppendRun(path, pr string, rep any) (int, error) {
	var h struct {
		Runs []json.RawMessage `json:"runs"`
	}
	data, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(data, &h); err != nil {
			return 0, fmt.Errorf("bench: parsing history %s: %w", path, err)
		}
		if h.Runs == nil {
			return 0, fmt.Errorf("bench: %s holds no runs array", path)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	body, err := json.MarshalIndent(rep, "    ", "  ")
	if err != nil {
		return 0, err
	}
	label, err := json.Marshal(pr)
	if err != nil {
		return 0, err
	}
	// The label leads the entry: splice it in after the report's '{'.
	h.Runs = append(h.Runs, fmt.Appendf(nil, "{\n      \"pr\": %s,%s", label, body[1:]))
	var b bytes.Buffer
	b.WriteString("{\n  \"runs\": [\n    ")
	for i, run := range h.Runs {
		if i > 0 {
			b.WriteString(",\n    ")
		}
		b.Write(run)
	}
	b.WriteString("\n  ]\n}")
	return len(h.Runs), os.WriteFile(path, b.Bytes(), 0o644)
}
