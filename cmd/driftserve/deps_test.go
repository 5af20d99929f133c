package main

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// paperOnly are the packages the server must not link: the paper's
// evaluation harness, its ODIN baseline and the fault injector. The
// served model set is internal/modelset (DESIGN.md §17).
var paperOnly = []string{
	"videodrift/internal/experiments",
	"videodrift/internal/odin",
	"videodrift/internal/faults",
}

// TestServerLinksNoPaperRuns walks driftserve's non-test imports within
// the module and fails on any package of paperOnly, naming the chain
// that reaches it.
func TestServerLinksNoPaperRuns(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	const module = "videodrift"
	via := map[string]string{module + "/cmd/driftserve": ""}
	queue := []string{module + "/cmd/driftserve"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if imp != module && !strings.HasPrefix(imp, module+"/") {
				continue
			}
			if _, seen := via[imp]; seen {
				continue
			}
			via[imp] = path
			queue = append(queue, imp)
		}
	}
	if len(via) < 10 {
		t.Fatalf("the walk reached only %d packages: it did not follow the module's imports", len(via))
	}
	for _, bad := range paperOnly {
		if _, linked := via[bad]; !linked {
			continue
		}
		chain := []string{bad}
		for p := via[bad]; p != ""; p = via[p] {
			chain = append(chain, p)
		}
		slices.Reverse(chain)
		t.Errorf("driftserve links %s: %s", bad, strings.Join(chain, " -> "))
	}
}
