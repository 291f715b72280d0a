package bench

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"seedex/internal/core"
)

func smallWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := BuildWorkload(40_000, 150, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Problems) == 0 {
		t.Fatal("workload harvested no extension problems")
	}
	return w
}

// TestHarvestIgnoresGOMAXPROCS: the harvest maps with one worker, so the
// problems, their order, and every figure that replays them depend on
// the seed alone. Fig 16c and the BSW:edit ablation replay the job order
// through the FPGA model, so a reordered harvest shows in their output.
func TestHarvestIgnoresGOMAXPROCS(t *testing.T) {
	build := func(procs int) (*Workload, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w := smallWorkload(t)
		a, l, c := Fig16(w)
		return w, a.String() + l.String() + c.String() + AblationBSWEditRatio(w).String()
	}
	w1, out1 := build(1)
	w2, out2 := build(2)
	if !reflect.DeepEqual(w1.Problems, w2.Problems) {
		t.Fatalf("GOMAXPROCS 1 and 2 harvested different problems (%d vs %d)", len(w1.Problems), len(w2.Problems))
	}
	if out1 != out2 {
		t.Fatalf("figure output differs between GOMAXPROCS 1 and 2:\n%s\n--\n%s", out1, out2)
	}
}

func TestFig02(t *testing.T) {
	w := smallWorkload(t)
	tab, est, used := Fig02(w)
	if len(tab.Rows) != 2 {
		t.Fatalf("fig2 rows: %d", len(tab.Rows))
	}
	// The used band is dramatically smaller than the estimate: the
	// paper's headline observation (>98% of real-data extensions need
	// <=10; our realistic workload includes garbage tails, so the bar is
	// slightly lower here).
	if used.CumPct(0) < 80 {
		t.Fatalf("used band <=10 only %.1f%%, expected >80%%", used.CumPct(0))
	}
	if est.CumPct(0) > used.CumPct(0) {
		t.Fatalf("estimate should be more conservative than used: %.1f vs %.1f", est.CumPct(0), used.CumPct(0))
	}
	if tab.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestFig03(t *testing.T) {
	w := smallWorkload(t)
	tab := Fig03(w, []int{5, 21, 41, 101}, 200)
	if len(tab.Rows) != 4 {
		t.Fatalf("fig3 rows: %d", len(tab.Rows))
	}
}

func TestFig04(t *testing.T) {
	tab := Fig04([]int{5, 21, 41, 61, 81, 101})
	if len(tab.Rows) != 6 {
		t.Fatalf("fig4 rows: %d", len(tab.Rows))
	}
	// Normalized column must ascend.
	if !strings.Contains(tab.String(), "101") {
		t.Fatal("missing band row")
	}
}

func TestFig13SeedExAlwaysZero(t *testing.T) {
	w, err := Fig13Workload(30_000, 120, 9)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig13(w, []int{3, 21, 41})
	if err != nil {
		t.Fatal(err)
	}
	heuristicDiffs := 0
	for _, row := range tab.Rows {
		if row[3] != "0" {
			t.Fatalf("SeedEx diffs nonzero at band %s: %s", row[0], row[3])
		}
		if row[1] != "0" {
			heuristicDiffs++
		}
	}
	if heuristicDiffs == 0 {
		t.Fatal("the BSW heuristic never diverged; the Figure 13 effect is absent")
	}
}

func TestFig14RatesIncreaseWithBand(t *testing.T) {
	w := smallWorkload(t)
	tab := Fig14(w, []int{11, 41, 101})
	if len(tab.Rows) != 3 {
		t.Fatalf("fig14 rows: %d", len(tab.Rows))
	}
	// Overall pass rate at 41 PEs should be high on realistic data.
	reps := w.CheckOutcomes(20, core.ModePaper)
	pass := 0
	for _, r := range reps {
		if r.Pass {
			pass++
		}
	}
	rate := float64(pass) / float64(len(reps))
	if rate < 0.9 {
		t.Fatalf("paper-mode pass rate at 41 PEs = %.3f, expected >0.9 (paper: 0.98)", rate)
	}
	t.Logf("pass rate at 41 PEs: %.4f (paper: 0.9819)", rate)
}

func TestFig16(t *testing.T) {
	w := smallWorkload(t)
	a, l, c := Fig16(w)
	if len(a.Rows) != 2 || len(l.Rows) != 4 || len(c.Rows) != 2 {
		t.Fatalf("fig16 shapes: %d %d %d", len(a.Rows), len(l.Rows), len(c.Rows))
	}
}

func TestFig17(t *testing.T) {
	w, err := BuildWorkload(30_000, 100, 11)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig17(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("fig17 rows: %d", len(tab.Rows))
	}
	// The fully accelerated configuration must be the fastest.
	speedup := make([]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		if speedup[i], err = strconv.ParseFloat(row[5], 64); err != nil {
			t.Fatalf("row %d speedup column malformed: %v", i, row)
		}
	}
	if all := speedup[3]; all <= 1 || all <= speedup[0] || all < speedup[2] {
		t.Fatalf("seeding + SeedEx FPGA speedup %.2f must exceed 1, the software baseline (%.2f) and reach SeedEx FPGA alone (%.2f)",
			all, speedup[0], speedup[2])
	}
}

func TestStaticTables(t *testing.T) {
	for name, tab := range map[string]interface{ String() string }{
		"fig15":  Fig15(),
		"table2": Table2(),
		"table3": Table3(),
		"fig18":  Fig18(),
	} {
		if tab.String() == "" {
			t.Fatalf("%s renders empty", name)
		}
	}
}

// This package measures kernels and pipelines in-process; the daemon is
// load-tested by benchmark/ alone. No non-test file here may import the
// serving stack, so a second load harness cannot grow back unnoticed.
func TestNoServingStackImports(t *testing.T) {
	served := []string{"seedex/internal/server", "seedex/internal/obs", "seedex/internal/refstore"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); slices.Contains(served, path) {
				t.Errorf("%s imports %s; load tests of the daemon belong in benchmark/", name, path)
			}
		}
	}
}
