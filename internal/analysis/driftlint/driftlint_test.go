package driftlint

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway single-package module and loads
// it, returning the program for Run.
func writeModule(t *testing.T, src string) *Program {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("tmpmod", dir)
	pkg, err := loader.Load("tmpmod")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Err != nil {
		t.Fatalf("test module does not type-check: %v", pkg.Err)
	}
	return loader.Program([]*Package{pkg})
}

// flagTime is a toy analyzer that flags every call to time.Now, so the
// tests can place directives that do and do not suppress something.
var flagTime = &Analyzer{
	Name: "flagtime",
	Doc:  "test analyzer: flags time.Now calls",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := CalleeFunc(pass.TypesInfo, call); fn != nil && fn.FullName() == "time.Now" {
					pass.Reportf(call.Pos(), "time.Now call")
				}
				return true
			})
		}
		return nil
	},
}

func messages(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Analyzer+": "+d.Message)
	}
	return out
}

func wantOne(t *testing.T, diags []Diagnostic, analyzer, substr string) {
	t.Helper()
	n := 0
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly one %q diagnostic containing %q, got %d in %q",
			analyzer, substr, n, messages(diags))
	}
}

func TestAllowSuppressesWithReason(t *testing.T) {
	prog := writeModule(t, `package p

import "time"

func f() time.Time {
	return time.Now() //lint:allow flagtime the test wants wall clock here
}
`)
	diags := Run(prog, []*Analyzer{flagTime})
	if len(diags) != 0 {
		t.Fatalf("want clean run, got %q", messages(diags))
	}
}

func TestAllowUnknownAnalyzerIsError(t *testing.T) {
	prog := writeModule(t, `package p

import "time"

func f() time.Time {
	return time.Now() //lint:allow flagtme typo in the analyzer name
}
`)
	diags := Run(prog, []*Analyzer{flagTime})
	// The typo'd directive must not suppress, so the finding survives,
	// and the directive itself is an error.
	wantOne(t, diags, "flagtime", "time.Now call")
	wantOne(t, diags, AllowAnalyzerName, `unknown analyzer "flagtme"`)
}

func TestAllowMissingReasonIsError(t *testing.T) {
	prog := writeModule(t, `package p

import "time"

func f() time.Time {
	return time.Now() //lint:allow flagtime
}
`)
	diags := Run(prog, []*Analyzer{flagTime})
	wantOne(t, diags, "flagtime", "time.Now call")
	wantOne(t, diags, AllowAnalyzerName, "missing reason")
}

func TestAllowBareDirectiveIsError(t *testing.T) {
	prog := writeModule(t, `package p

//lint:allow
func f() {}
`)
	diags := Run(prog, []*Analyzer{flagTime})
	wantOne(t, diags, AllowAnalyzerName, "missing analyzer name")
}

func TestAllowOnWrongLineIsError(t *testing.T) {
	prog := writeModule(t, `package p

import "time"

//lint:allow flagtime directive is two lines above the call, so it hangs

func f() time.Time {
	return time.Now()
}
`)
	diags := Run(prog, []*Analyzer{flagTime})
	// The finding survives (the directive is out of range) and the
	// dangling waiver is reported rather than silently ignored.
	wantOne(t, diags, "flagtime", "time.Now call")
	wantOne(t, diags, AllowAnalyzerName, "suppresses no diagnostic")
}

func TestAllowUnusedIsError(t *testing.T) {
	prog := writeModule(t, `package p

func f() int {
	return 1 //lint:allow flagtime nothing here ever fires
}
`)
	diags := Run(prog, []*Analyzer{flagTime})
	wantOne(t, diags, AllowAnalyzerName, "suppresses no diagnostic")
}

func TestAllowMultiNameSuppressesAndValidates(t *testing.T) {
	prog := writeModule(t, `package p

import "time"

func f() time.Time {
	return time.Now() //lint:allow flagtime,flagtme one good name, one typo
}
`)
	diags := Run(prog, []*Analyzer{flagTime})
	// The good name suppresses the finding; the typo is still an error.
	for _, d := range diags {
		if d.Analyzer == "flagtime" {
			t.Errorf("finding should be suppressed by the valid name, got %q", d.Message)
		}
	}
	wantOne(t, diags, AllowAnalyzerName, `unknown analyzer "flagtme"`)
}

func TestProgramFactsIndexFunctions(t *testing.T) {
	prog := writeModule(t, `package p

func leaf() int { return 1 }

func mid() int { return leaf() }

func top() int { return mid() + mid() }
`)
	pkg := prog.Targets[0]
	var top *FuncInfo
	for _, fi := range prog.funcs {
		if fi.Func.Name() == "top" {
			top = fi
		}
	}
	if top == nil {
		t.Fatal("fact layer did not index top()")
	}
	if len(top.Calls) != 1 || top.Calls[0].Name() != "mid" {
		t.Fatalf("top's calls = %v, want exactly [mid]", top.Calls)
	}
	if prog.PackageAt(prog.Fset.Position(top.Decl.Pos())) != pkg {
		t.Fatal("PackageAt did not resolve the declaration's file to its package")
	}
}
