// Package driftlint is a small, dependency-free static-analysis
// framework in the shape of golang.org/x/tools/go/analysis, built on
// the standard library's go/ast and go/types only (the build
// environment bakes in the Go toolchain but no external modules).
//
// It exists to machine-check the repo's cross-cutting invariants — the
// guarantees the compiler cannot see, no test can pin, and the system's
// headline claims rest on:
//
//   - bit-identical warm restart (no wall clock, no global randomness,
//     no unordered iteration feeding serialized state — analyzer
//     "determinism");
//   - checkpoint completeness (every snapshot-struct field covered by
//     both its encode and decode path — analyzer "snapshotsync");
//   - goroutine stop paths and lock-acquisition order, whole-program
//     (analyzers "goroleak" and "lockorder").
//
// Analyzers run per package over type-checked syntax. A finding can be
// suppressed at a call site with a directive comment on the same line
// or the line directly above:
//
//	//lint:allow <analyzer>[,<analyzer>...] <reason>
//
// The reason is free text and mandatory by convention (reviewed, not
// enforced). See DESIGN.md §10 for the invariant catalog.
package driftlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker, mirroring
// golang.org/x/tools/go/analysis.Analyzer closely enough that the suite
// could be ported onto the real multichecker if the dependency ever
// lands in the build image.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `driftlint -help` prints.
	Doc string
	// Run inspects one package and reports findings through the pass.
	// Nil for whole-program analyzers that only implement RunProgram.
	Run func(*Pass) error
	// RunProgram, when non-nil, runs once per driftlint invocation with
	// the shared fact layer — the hook for analyzers whose invariant
	// spans packages (lock ordering, goroutine stop paths). It runs
	// after every per-package Run.
	RunProgram func(*ProgPass) error
}

// A Diagnostic is one finding, positioned and attributed to its
// analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the shared whole-program fact layer (never nil): the call
	// graph and cross-package declarations per-package analyzers can
	// chase spawn sites and lock paths through.
	Prog *Program

	pkg   *Package
	diags *[]Diagnostic
}

// Reportf records a finding at pos unless a //lint:allow directive for
// this analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.pkg.allowedAt(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// HasFileDirective reports whether any file of the package carries a
// comment of the exact form "//driftlint:<name>" (package-level opt-in,
// e.g. //driftlint:deterministic on a fixture or a new critical
// package).
func (p *Pass) HasFileDirective(name string) bool {
	want := "//driftlint:" + name
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if text == want || strings.HasPrefix(text, want+" ") {
					return true
				}
			}
		}
	}
	return false
}

// allowDirective is one parsed //lint:allow comment. Malformed
// directives (no analyzer name, no reason) are kept with bad set: they
// suppress nothing and are reported by the directive validation pass —
// a typo in a waiver must be a lint error, never a silent no-op.
type allowDirective struct {
	names  []string
	reason string
	pos    token.Position
	bad    string // non-empty: why the directive failed to parse
	used   bool   // suppressed at least one finding this run
}

// directiveIndex maps filename -> line -> directives on that line.
type directiveIndex map[string]map[int][]*allowDirective

// buildDirectives scans a package's comments for //lint:allow
// directives and indexes them by position. A directive suppresses
// findings on its own line and on the line directly below it (so it can
// trail the flagged expression or sit on its own line above it).
func buildDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := directiveIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				d := parseAllow(strings.TrimPrefix(text, "lint:allow"))
				d.pos = fset.Position(c.Pos())
				byLine := idx[d.pos.Filename]
				if byLine == nil {
					byLine = map[int][]*allowDirective{}
					idx[d.pos.Filename] = byLine
				}
				byLine[d.pos.Line] = append(byLine[d.pos.Line], d)
			}
		}
	}
	return idx
}

// parseAllow parses the payload after "//lint:allow".
func parseAllow(rest string) *allowDirective {
	d := &allowDirective{}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		d.bad = "missing analyzer name and reason (want //lint:allow <analyzer> <reason>)"
		return d
	}
	fields := strings.Fields(rest)
	d.names = strings.Split(fields[0], ",")
	for _, n := range d.names {
		if n == "" {
			d.bad = fmt.Sprintf("empty analyzer name in %q", fields[0])
			return d
		}
	}
	d.reason = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
	if d.reason == "" {
		d.bad = fmt.Sprintf("missing reason after %q — every waiver must say why", fields[0])
	}
	return d
}

// allowedAt reports whether a well-formed //lint:allow directive for the
// analyzer covers the position's line, marking the directive used.
// Malformed directives never suppress.
func (p *Package) allowedAt(analyzer string, pos token.Position) bool {
	byLine := p.allows[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.bad != "" {
				continue
			}
			for _, name := range d.names {
				if name == analyzer {
					d.used = true
					return true
				}
			}
		}
	}
	return false
}

// AllowAnalyzerName attributes directive-validation diagnostics: a
// malformed, unknown-analyzer, or suppresses-nothing //lint:allow is
// itself a lint error (it cannot be waived — fix or delete it).
const AllowAnalyzerName = "allow"

// validateDirectives checks every //lint:allow in the target packages
// after the analyzers ran: the named analyzers must exist, the reason
// must be present, and the directive must have suppressed something —
// a directive on the wrong line silently allowing nothing is exactly
// how a waived invariant regresses unnoticed.
func validateDirectives(prog *Program, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		names = append(names, a.Name)
	}
	var diags []Diagnostic
	report := func(d *allowDirective, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Pos:      d.pos,
			Analyzer: AllowAnalyzerName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range prog.Targets {
		if pkg.Err != nil {
			continue // analyzers did not run; "unused" would be noise
		}
		for _, file := range sortedKeys(pkg.allows) {
			byLine := pkg.allows[file]
			for _, line := range sortedIntKeys(byLine) {
				for _, d := range byLine[line] {
					switch {
					case d.bad != "":
						report(d, "malformed //lint:allow: %s", d.bad)
					default:
						ok := true
						for _, n := range d.names {
							if !known[n] {
								ok = false
								report(d, "//lint:allow names unknown analyzer %q (known: %s)",
									n, strings.Join(names, ", "))
							}
						}
						if ok && !d.used {
							report(d, "//lint:allow %s suppresses no diagnostic on this or the next line — it is on the wrong line, or the finding is gone and the waiver should be deleted",
								strings.Join(d.names, ","))
						}
					}
				}
			}
		}
	}
	return diags
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Run applies every analyzer to the program's target packages —
// per-package Run passes over the shared type-checked cache, then
// whole-program RunProgram passes over the shared fact layer, then the
// //lint:allow directive validation — and returns the combined findings
// sorted by position. Packages that failed to type-check surface their
// first error as a diagnostic attributed to "typecheck" and are skipped
// by the analyzers (their syntax info would be unreliable).
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Targets {
		if pkg.Err != nil {
			diags = append(diags, Diagnostic{
				Pos:      pkg.ErrPos,
				Analyzer: "typecheck",
				Message:  pkg.Err.Error(),
			})
			continue
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Prog:      prog,
				pkg:       pkg,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pp := &ProgPass{Analyzer: a, Prog: prog, diags: &diags}
		if err := a.RunProgram(pp); err != nil {
			diags = append(diags, Diagnostic{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("internal error: %v", err),
			})
		}
	}
	diags = append(diags, validateDirectives(prog, analyzers)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ---- shared type-query helpers used by the analyzers ----

// CalleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a declared function (e.g. a function
// value, a conversion, or a builtin).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// NamedOf returns t's *types.Named after stripping pointers, or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// RecvBaseName returns the name of a method declaration's receiver base
// type ("" for plain functions), e.g. "Pipeline" for
// func (p *Pipeline) Snapshot().
func RecvBaseName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
