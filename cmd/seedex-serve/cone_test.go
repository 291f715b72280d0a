package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServeDependencyCone holds the daemon's import cone to the code it
// runs. The simulated FPGA platform (driver, fpga, hw) and the ERT seeding
// model stand in for the paper's hardware: tests and seedex-align run
// them, the daemon never serves through them. The walk follows the
// module's imports from this package with go/parser, test files left out
// and build constraints ignored, so it sees every build's cone at once.
// The server itself keeps no fault-tolerance view, so it does not import
// internal/faults either (the index store still does, for its fault
// injector; the server's tests may, for the reload drills). Nor does any
// server file, its tests included, import internal/driver: the simulated
// device is a standalone model, not an engine the server is tested with.
func TestServeDependencyCone(t *testing.T) {
	const module = "seedex/"
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
				if pkg == "internal/server" && dep == "internal/faults" {
					t.Errorf("internal/server imports internal/faults (%s)", name)
				}
				if _, seen := importer[dep]; ok && !seen {
					importer[dep] = pkg
					queue = append(queue, dep)
				}
			}
		}
	}
	if _, ok := importer["internal/server"]; !ok {
		t.Fatalf("the walk never reached internal/server: %v", importer)
	}
	serverFiles, err := filepath.Glob(filepath.Join(root, "internal", "server", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range serverFiles {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == module+"internal/driver" {
				t.Errorf("internal/server imports internal/driver (%s)", name)
			}
		}
	}
	for _, banned := range []string{"internal/driver", "internal/fpga", "internal/hw", "internal/ert"} {
		if _, ok := importer[banned]; !ok {
			continue
		}
		chain := banned
		for p := importer[banned]; p != ""; p = importer[p] {
			chain = p + " -> " + chain
		}
		t.Errorf("seedex-serve imports %s: %s", banned, chain)
	}
}
