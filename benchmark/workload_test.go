package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tiny shrinks a workload to something a test generates in a fraction of
// a second; the traffic shape (ops per request, endpoint, flags) stays.
func tiny(sp spec) spec {
	sp.refLen, sp.nReads, sp.warmup = 30_000, 400, 10
	if sp.nProblems > 0 {
		sp.nProblems = 512
	}
	return sp
}

func mustGenerate(t *testing.T, sp spec, seed int64) *workload {
	t.Helper()
	w, err := generate(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, sp := range specs {
		sp = tiny(sp)
		a, b, c := mustGenerate(t, sp, 1), mustGenerate(t, sp, 1), mustGenerate(t, sp, 2)
		for _, tr := range []func(*workload) traffic{func(w *workload) traffic { return w.extends }, func(w *workload) traffic { return w.maps }} {
			ta, tb, tc := tr(a), tr(b), tr(c)
			if len(ta.bodies) == 0 {
				t.Fatalf("%s %s: no bodies", sp.name, ta.path)
			}
			if ta.sha256 != tb.sha256 || len(ta.bodies) != len(tb.bodies) {
				t.Fatalf("%s %s: seed 1 twice gave %s and %s", sp.name, ta.path, ta.sha256, tb.sha256)
			}
			for i := range ta.bodies {
				if !bytes.Equal(ta.bodies[i], tb.bodies[i]) {
					t.Fatalf("%s %s: body %d differs between two generations of seed 1", sp.name, ta.path, i)
				}
			}
			if ta.sha256 == tc.sha256 {
				t.Errorf("%s %s: seeds 1 and 2 gave the same bodies", sp.name, ta.path)
			}
		}
		if a.truePosShare != b.truePosShare {
			t.Errorf("%s: true_pos_share %v then %v for one seed", sp.name, a.truePosShare, b.truePosShare)
		}
	}
}

// The two bulk workloads must differ in the daemon's mode and nothing
// else, or a row up on one and down on the other means nothing.
func TestBulkWorkloadsShareBodies(t *testing.T) {
	strict, _ := specByName("extend_bulk_strict")
	paper, _ := specByName("extend_bulk_paper")
	want := strict
	want.name, want.paper = paper.name, true
	if paper != want {
		t.Fatalf("extend_bulk_paper is %+v, want extend_bulk_strict with -mode paper: %+v", paper, want)
	}
	if a, b := mustGenerate(t, tiny(strict), 3), mustGenerate(t, tiny(paper), 3); a.extends.sha256 != b.extends.sha256 {
		t.Fatalf("bodies differ: %s vs %s", a.extends.sha256, b.extends.sha256)
	}
}

func TestNoProblemInsideARequestTwice(t *testing.T) {
	sp, _ := specByName("extend_bulk_strict")
	w := mustGenerate(t, tiny(sp), 1)
	if got, want := len(w.extends.bodies)*w.extends.perReq, len(w.extExpects); got != want {
		t.Fatalf("%d bodies of %d jobs for %d expectations", len(w.extends.bodies), w.extends.perReq, want)
	}
	if got, want := len(w.maps.bodies)*w.maps.perReq, len(w.reads)/w.maps.perReq*w.maps.perReq; got != want {
		t.Fatalf("map bodies cover %d reads, want %d", got, want)
	}
}

// Every in-process call into the program is confined to layers.go: no
// other file of the benchmark may import the program's packages.
func TestOnlyLayersImportsTheProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "seedex" || strings.HasPrefix(path, "seedex/")) && name != "layers.go" {
				t.Errorf("%s imports %s; only layers.go may call into the program", name, path)
			}
		}
	}
}
