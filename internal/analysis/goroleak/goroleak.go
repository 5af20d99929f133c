// Package goroleak checks that every goroutine spawned in the
// repo's concurrency-bearing packages has a provable stop path. A
// sharded monitor fleet runs for weeks; a spawn site whose goroutine
// can only end with the process is a slow leak that surfaces as memory
// growth and stuck shutdowns long after the commit that introduced it.
//
// A spawn site is flagged when the goroutine provably runs unbounded —
// an unconditional for-loop, a range over a time.Ticker channel (Stop
// never closes it), or a net/http serve call — anywhere in the
// goroutine's own call graph, and none of the accepted stop proofs is
// present:
//
//   - a channel receive or range over a closable channel (done
//     channels, job queues) in the unbounded body or the goroutine's
//     entry body;
//   - sync.WaitGroup.Done — the goroutine hands bounded work back to a
//     waiter;
//   - a context Done channel or an I/O deadline (Set*Deadline);
//   - net.Listener.Accept — the spawner can close the listener;
//   - the spawner itself calling Close/Shutdown/Stop on (or close() of)
//     an object the goroutine captures. Ticker.Stop is excluded: it
//     does not close the ticker's channel.
//
// The walk never descends into nested go statements: code behind them
// runs in a different goroutine and is judged at its own spawn site.
// Evidence must be local — in the unbounded body itself, the entry
// body, or the spawner — so a receive buried in an unrelated reachable
// callee cannot vouch for a ticker loop that never looks at it.
package goroleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"videodrift/internal/analysis/driftlint"
)

// CoveredPackages are the import paths checked by default; any other
// package opts in with a //driftlint:goroutines file comment.
var CoveredPackages = []string{
	"videodrift/cmd/driftserve",
	"videodrift/internal/core",
	"videodrift/internal/ingest",
	"videodrift/internal/parallel",
	"videodrift/internal/serve",
}

// Analyzer flags goroutine spawn sites with no provable stop path.
var Analyzer = &driftlint.Analyzer{
	Name: "goroleak",
	Doc:  "goroutines spawned in the concurrency-bearing packages must have a provable stop path (done channel, WaitGroup, deadline, or spawner-held Close)",
	Run:  run,
}

// blockingServe lists net/http entry points that block until the
// server is closed; spawning one without holding a closable
// *http.Server leaks the goroutine.
var blockingServe = map[string]bool{
	"ListenAndServe":    true,
	"ListenAndServeTLS": true,
	"Serve":             true,
	"ServeTLS":          true,
}

func run(pass *driftlint.Pass) error {
	covered := pass.HasFileDirective("goroutines")
	for _, p := range CoveredPackages {
		if pass.Pkg.Path() == p {
			covered = true
		}
	}
	if !covered {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					checkSpawn(pass, fd, g)
				}
				return true
			})
		}
	}
	return nil
}

// bodyFacts is one function body's contribution to a spawn verdict,
// computed without descending into nested go statements.
type bodyFacts struct {
	needs string        // non-empty: why the body runs unbounded
	stop  string        // non-empty: the stop evidence found
	calls []*types.Func // declared functions the body references
}

// checkSpawn judges one go statement: resolve the goroutine's entry
// body, chase its call graph for unbounded constructs, and report when
// no stop evidence covers them.
func checkSpawn(pass *driftlint.Pass, encl *ast.FuncDecl, g *ast.GoStmt) {
	info := pass.TypesInfo
	var entry bodyFacts
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		entry = scanBody(info, fun.Body)
	default:
		fn := driftlint.CalleeFunc(info, g.Call)
		if fn == nil {
			return // dynamic function value: nothing provable either way
		}
		if fnPkg(fn) == "net/http" && blockingServe[fn.Name()] {
			entry.needs = "it calls a net/http serve entry point, which blocks until the server is closed"
		}
		entry.calls = []*types.Func{fn}
	}

	// The first unbounded body with no evidence of its own, entry first.
	unstopped := ""
	if entry.needs != "" && entry.stop == "" {
		unstopped = entry.needs
	}
	seen := map[*types.Func]bool{}
	frontier := make([]*types.Func, 0, len(entry.calls))
	push := func(fns []*types.Func) {
		for _, fn := range fns {
			if !seen[fn] && len(frontier) < driftlint.DefaultReachLimit {
				seen[fn] = true
				frontier = append(frontier, fn)
			}
		}
	}
	push(entry.calls)
	for i := 0; i < len(frontier); i++ {
		fi := pass.Prog.FuncInfo(frontier[i])
		if fi == nil {
			continue // standard library or interface method: opaque
		}
		bf := scanBody(fi.Pkg.Info, fi.Decl.Body)
		if bf.needs != "" && bf.stop == "" && unstopped == "" {
			unstopped = fmt.Sprintf("%s (in %s)", bf.needs, frontier[i].FullName())
		}
		push(bf.calls)
	}

	if unstopped == "" || entry.stop != "" || spawnerStops(info, encl, g) {
		return
	}
	pass.Reportf(g.Pos(), "goroutine runs unbounded — %s — with no provable stop path (done-channel receive, WaitGroup Done, context or deadline, closable Accept, or a spawner-held Close/Stop on a captured object); thread a shutdown signal through", unstopped)
}

// scanBody collects one body's facts. Nested go statements are skipped
// entirely: their code runs in a different goroutine.
func scanBody(info *types.Info, root ast.Node) bodyFacts {
	var bf bodyFacts
	seen := map[*types.Func]bool{}
	setNeeds := func(why string) {
		if bf.needs == "" {
			bf.needs = why
		}
	}
	setStop := func(what string) {
		if bf.stop == "" {
			bf.stop = what
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // judged at its own spawn site
		case *ast.ForStmt:
			if n.Cond == nil {
				setNeeds("it loops with no exit condition")
			}
		case *ast.RangeStmt:
			if isChan(info, n.X) {
				if isTickerC(info, n.X) {
					setNeeds("it ranges over a time.Ticker channel, which Stop never closes")
				} else {
					setNeeds("it ranges over a channel")
					setStop("the range ends when the channel is closed")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !isTickerC(info, n.X) {
				setStop("a channel receive")
			}
		case *ast.CallExpr:
			fn := driftlint.CalleeFunc(info, n)
			if fn == nil {
				break
			}
			name := fn.Name()
			switch pkg := fnPkg(fn); {
			case pkg == "sync" && name == "Done":
				setStop("WaitGroup Done: bounded work handed back to a waiter")
			case pkg == "context" && name == "Done":
				setStop("a context Done channel")
			case strings.HasPrefix(name, "Set") && strings.HasSuffix(name, "Deadline"):
				setStop("an I/O deadline")
			case pkg == "net" && name == "Accept":
				setStop("a closable listener Accept")
			case pkg == "net/http" && blockingServe[name]:
				setNeeds("it calls a net/http serve entry point, which blocks until the server is closed")
			}
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok && !seen[fn] {
				seen[fn] = true
				bf.calls = append(bf.calls, fn)
			}
		}
		return true
	})
	return bf
}

// spawnerStops reports whether the enclosing function, outside the go
// statement itself, calls Close/Shutdown/Stop on — or close()s — an
// object the goroutine captures. Ticker.Stop is excluded: stopping a
// ticker never closes its channel, so it cannot unblock a ranging
// goroutine.
func spawnerStops(info *types.Info, encl *ast.FuncDecl, g *ast.GoStmt) bool {
	captured := map[types.Object]bool{}
	ast.Inspect(g, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := info.Uses[id].(*types.Var); ok {
				captured[obj] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if gs, ok := n.(*ast.GoStmt); ok && gs == g {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			// close(ch) on a captured channel.
			if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin &&
				fun.Name == "close" && len(call.Args) == 1 {
				if obj := baseObj(info, call.Args[0]); obj != nil && captured[obj] {
					found = true
				}
			}
		case *ast.SelectorExpr:
			switch fun.Sel.Name {
			case "Close", "Shutdown", "Stop":
				obj := baseObj(info, fun.X)
				if obj == nil || !captured[obj] {
					break
				}
				if fun.Sel.Name == "Stop" && isTickerObj(obj) {
					break
				}
				found = true
			}
		}
		return true
	})
	return found
}

// baseObj resolves an expression like x, x.f or (x).f to the object of
// its base identifier, or nil.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func fnPkg(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isChan reports whether e has a channel type.
func isChan(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isTickerC reports whether e is the C field of a time.Ticker — the
// one channel whose producer is stopped without ever being closed, so
// receiving from it proves nothing about shutdown. (*time.Timer's C
// fires once and counts as a deadline, so it is not excluded.)
func isTickerC(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "C" {
		return false
	}
	return isTimeNamed(info.TypeOf(sel.X), "Ticker")
}

// isTickerObj reports whether the object's type is time.Ticker or
// *time.Ticker.
func isTickerObj(obj types.Object) bool {
	return isTimeNamed(obj.Type(), "Ticker")
}

func isTimeNamed(t types.Type, name string) bool {
	n := driftlint.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "time" && n.Obj().Name() == name
}
