package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestServeDependencyCone pins the daemon's import cone to exactly the
// packages it runs. The FPGA platform model (fpga, hw) and the ERT
// seeding model stand in for the paper's hardware: seedex-bench and
// seedex-align run them, the daemon never serves through them, so they
// stay out, and any new import shows up here as a diff. The walk follows
// the module's imports from this package with go/parser, test files left
// out and build constraints ignored, so it sees every build's cone at
// once.
func TestServeDependencyCone(t *testing.T) {
	const module = "seedex/"
	want := []string{
		"internal/align", "internal/bwamem", "internal/chain", "internal/core",
		"internal/delta", "internal/editmachine", "internal/fmindex", "internal/genome",
		"internal/obs", "internal/refstore", "internal/sam", "internal/server",
	}
	root := filepath.Join("..", "..")
	// importer[pkg] is the package the walk first reached pkg from.
	importer := map[string]string{"cmd/seedex-serve": ""}
	for queue := []string{"cmd/seedex-serve"}; len(queue) > 0; queue = queue[1:] {
		pkg := queue[0]
		files, err := filepath.Glob(filepath.Join(root, pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", pkg, err)
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
				path, _ := strconv.Unquote(imp.Path.Value)
				dep, ok := strings.CutPrefix(path, module)
				if _, seen := importer[dep]; ok && !seen {
					importer[dep] = pkg
					queue = append(queue, dep)
				}
			}
		}
	}
	for pkg := range importer {
		if pkg == "cmd/seedex-serve" || slices.Contains(want, pkg) {
			continue
		}
		chain := pkg
		for p := importer[pkg]; p != ""; p = importer[p] {
			chain = p + " -> " + chain
		}
		t.Errorf("seedex-serve imports %s: %s", pkg, chain)
	}
	for _, pkg := range want {
		if _, ok := importer[pkg]; !ok {
			t.Errorf("seedex-serve no longer imports %s; drop it from the cone", pkg)
		}
	}
}
