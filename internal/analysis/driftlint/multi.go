package driftlint

import (
	"fmt"
	"io"
	"time"
)

// Timing is one invocation's wall-clock split, for `driftlint -timing`:
// Load is parsing + type-checking every package (paid once, shared by
// all analyzers), Facts the whole-program fact layer build (call graph,
// declaration index), Analyze the analyzers themselves plus directive
// validation.
type Timing struct {
	Load    time.Duration
	Facts   time.Duration
	Analyze time.Duration
	// Packages counts loaded module-local packages (targets + deps);
	// Funcs the fact layer's indexed function declarations.
	Packages, Funcs int
}

// RunPatternsTimed loads every package matching the patterns under the
// module rooted at root ONCE — one loader, one type-checked package
// cache, one fact layer — and applies all analyzers over that shared
// state, returning sorted diagnostics and the wall-clock split. It is
// Main's core.
func RunPatternsTimed(module, root string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, Timing, error) {
	var tm Timing
	loader := NewLoader(module, root)
	paths, err := loader.Expand(patterns)
	if err != nil {
		return nil, tm, err
	}
	start := time.Now()
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, tm, err
		}
		pkgs = append(pkgs, pkg)
	}
	tm.Load = time.Since(start)

	start = time.Now()
	prog := loader.Program(pkgs)
	tm.Facts = time.Since(start)
	tm.Packages = len(prog.All)
	tm.Funcs = len(prog.funcs)

	start = time.Now()
	diags := Run(prog, analyzers)
	tm.Analyze = time.Since(start)
	return diags, tm, nil
}

// Main is the multichecker entry point: argv holds package patterns
// (default "./..."), "-timing" to print the load/facts/analyze
// wall-clock split, or "-help" to list the analyzers. It resolves the
// enclosing module from dir, prints findings to w one per line in
// file:line:col form, and returns the process exit code: 0 clean,
// 1 findings, 2 usage or load failure.
func Main(w io.Writer, dir string, argv []string, analyzers []*Analyzer) int {
	var patterns []string
	timing := false
	for _, a := range argv {
		switch a {
		case "-help", "--help", "help":
			fmt.Fprintf(w, "driftlint checks the repo's determinism, checkpoint-completeness, float-comparison and concurrency invariants.\n\n")
			fmt.Fprintf(w, "usage: driftlint [-timing] [package pattern ...]   (default ./...)\n\nanalyzers:\n")
			for _, an := range analyzers {
				fmt.Fprintf(w, "  %-12s %s\n", an.Name, an.Doc)
			}
			fmt.Fprintf(w, "\nSuppress a finding with `//lint:allow <analyzer> <reason>` on the\nflagged line or the line above it. The reason is mandatory; a waiver\nthat suppresses nothing is itself an error.\n")
			return 0
		case "-timing", "--timing":
			timing = true
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	module, root, err := FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	diags, tm, err := RunPatternsTimed(module, root, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	if timing {
		fmt.Fprintf(w, "driftlint: %d packages, %d functions; load %v (shared across %d analyzers), facts %v, analyze %v\n",
			tm.Packages, tm.Funcs, tm.Load.Round(time.Millisecond), len(analyzers),
			tm.Facts.Round(time.Millisecond), tm.Analyze.Round(time.Millisecond))
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
