package driftlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FuncInfo is the fact layer's summary of one declared function or
// method: where it lives, its syntax, and every module-local function it
// references. "References" deliberately over-approximates "calls": a
// method value passed as a callback is recorded the same as a direct
// call, because for the invariants built on this graph (goroutine stop
// paths, lock ordering) a function that may run is as interesting as one
// that provably runs.
type FuncInfo struct {
	// Func is the type-checker's object for the declaration — the
	// canonical identity shared by every package in the program (one
	// loader, one FileSet, memoized imports).
	Func *types.Func
	// Decl is the declaration's syntax; Decl.Body is non-nil (bodyless
	// declarations are not indexed).
	Decl *ast.FuncDecl
	// Pkg is the loaded package the declaration belongs to; Pkg.Info is
	// the types.Info valid for Decl's syntax.
	Pkg *Package
	// Calls lists the declared functions and methods referenced anywhere
	// in the body (including inside nested function literals), in source
	// order, deduplicated. Interface methods appear as their interface's
	// *types.Func — they have no FuncInfo and end the walk there.
	Calls []*types.Func
}

// Program is the whole-program fact layer: every module-local package
// one Run loaded (analysis targets plus their in-module dependencies),
// with a call graph over go/types objects. It is built once per run and
// shared by all analyzers — per-function work here is paid one time, not
// once per analyzer.
type Program struct {
	Fset *token.FileSet
	// Targets are the packages the analyzers were asked to check (and
	// the only ones whose //lint:allow directives are validated).
	Targets []*Package
	// All is every loaded module-local package — Targets plus
	// dependencies — in import-path order.
	All []*Package

	funcs  map[*types.Func]*FuncInfo
	byFile map[string]*Package
}

// Program assembles the fact layer over every package this loader has
// loaded so far (targets and their module-local dependencies — standard
// library imports stay opaque). Call it after loading the targets.
func (l *Loader) Program(targets []*Package) *Program {
	prog := &Program{Fset: l.Fset, Targets: targets}
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if pkg := l.pkgs[path]; pkg != nil && len(pkg.Files) > 0 {
			prog.All = append(prog.All, pkg)
		}
	}
	prog.funcs = make(map[*types.Func]*FuncInfo)
	prog.byFile = make(map[string]*Package)
	for _, pkg := range prog.All {
		for _, f := range pkg.Files {
			prog.byFile[l.Fset.Position(f.Pos()).Filename] = pkg
		}
		if pkg.Err != nil {
			continue // unreliable syntax info; directives still resolve
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.funcs[fn] = &FuncInfo{
					Func:  fn,
					Decl:  fd,
					Pkg:   pkg,
					Calls: referencedFuncs(pkg.Info, fd.Body),
				}
			}
		}
	}
	return prog
}

// referencedFuncs collects every declared function an AST subtree
// references, in source order, deduplicated.
func referencedFuncs(info *types.Info, root ast.Node) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// FuncInfo returns the fact-layer entry for a declared function, or nil
// when fn has no indexed body (interface methods, standard library,
// packages that failed to load).
func (p *Program) FuncInfo(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return p.funcs[fn]
}

// Funcs returns every indexed function, sorted by source position —
// the deterministic iteration order for whole-program analyzers.
func (p *Program) Funcs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(p.funcs))
	for _, fi := range p.funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := p.Fset.Position(out[i].Decl.Pos()), p.Fset.Position(out[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}

// PackageAt returns the loaded package owning the file at position, or
// nil for positions outside the program (standard library).
func (p *Program) PackageAt(pos token.Position) *Package {
	return p.byFile[pos.Filename]
}

// DefaultReachLimit bounds a whole-program analyzer's call-graph walk.
const DefaultReachLimit = 600

// ProgPass is a whole-program analyzer's view of one run: the shared
// fact layer plus the diagnostic sink. Reportf honors //lint:allow
// directives by resolving positions back to their loaded package.
type ProgPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless a //lint:allow directive for
// this analyzer covers the position's line.
func (p *ProgPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Prog.Fset.Position(pos)
	if pkg := p.Prog.byFile[position.Filename]; pkg != nil &&
		pkg.allowedAt(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
