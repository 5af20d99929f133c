// Package lockorder builds the whole-program mutex-acquisition graph
// and flags cycles. Two code paths that take the same pair of mutexes
// in opposite orders can deadlock the moment they run concurrently —
// exactly the failure mode a sharded monitor fleet (supervisor lock,
// per-shard stats locks, ingest router, selection pool) grows into as
// call chains get longer.
//
// Nodes are type-level locks: a sync.Mutex/RWMutex field of a named
// struct ("pkg.Type.field") or a package-level mutex variable
// ("pkg.var"). Local mutexes are skipped (instance identity is
// statically unknowable, so ordering between them is meaningless).
//
// An edge A → B is recorded when a function acquires A and then,
// lexically before A's matching non-deferred Unlock (or to the end of
// the body when the unlock is deferred), either acquires B directly or
// calls a function that transitively acquires B. Readers of a
// copy-on-write atomic.Pointer snapshot never lock, so they simply
// contribute no nodes or edges.
//
// Code behind a go statement runs on a different goroutine and does
// not inherit the spawner's held locks; those subtrees are scanned as
// independent units. Same-node self-edges (locking two shards of the
// same type in sequence) are not reported.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"videodrift/internal/analysis/driftlint"
)

// Analyzer flags mutex-acquisition cycles across the whole program.
var Analyzer = &driftlint.Analyzer{
	Name:       "lockorder",
	Doc:        "two code paths must never acquire the same mutexes in opposite orders (whole-program acquisition-graph cycle check)",
	RunProgram: runProgram,
}

// acq is one lock acquisition and the lexical region it is held for.
type acq struct {
	node     string
	pos, end token.Pos
}

// callsite is one resolvable call inside a scan unit.
type callsite struct {
	fn  *types.Func
	pos token.Pos
}

// unit is one body analyzed for ordering: a function declaration minus
// its go subtrees, or one spawned goroutine literal.
type unit struct {
	fn    *types.Func // declaring function (also for goroutine units)
	acqs  []acq
	calls []callsite
}

// edgeInfo is the first witness recorded for one ordered pair.
type edgeInfo struct {
	pos token.Pos
	via string // callee name for a call edge, "" for a direct acquire
}

func runProgram(pp *driftlint.ProgPass) error {
	prog := pp.Prog
	var units []*unit
	byFn := map[*types.Func][]*unit{} // decl unit first, then its goroutine units
	for _, fi := range prog.Funcs() {
		us := scanUnits(fi)
		units = append(units, us...)
		byFn[fi.Func] = us
	}

	// transAcq: every node fn or its (go-free) callees acquire.
	memo := map[*types.Func]map[string]bool{}
	var transAcq func(fn *types.Func) map[string]bool
	transAcq = func(fn *types.Func) map[string]bool {
		if got, ok := memo[fn]; ok {
			return got
		}
		out := map[string]bool{}
		memo[fn] = out // pre-publish: cycles in the call graph terminate
		seen := map[*types.Func]bool{fn: true}
		queue := []*types.Func{fn}
		for i := 0; i < len(queue) && i < driftlint.DefaultReachLimit; i++ {
			for ui, u := range byFn[queue[i]] {
				if ui > 0 {
					continue // goroutine units run on another goroutine, not under the caller's locks
				}
				for _, a := range u.acqs {
					out[a.node] = true
				}
				for _, c := range u.calls {
					if !seen[c.fn] {
						seen[c.fn] = true
						queue = append(queue, c.fn)
					}
				}
			}
		}
		return out
	}

	edges := map[string]map[string]edgeInfo{}
	addEdge := func(from, to string, pos token.Pos, via string) {
		if from == to {
			return // per-shard same-type sequences: instance identity unknown
		}
		m := edges[from]
		if m == nil {
			m = map[string]edgeInfo{}
			edges[from] = m
		}
		if _, ok := m[to]; !ok {
			m[to] = edgeInfo{pos: pos, via: via}
		}
	}
	for _, u := range units {
		for i, a := range u.acqs {
			for _, b := range u.acqs[i+1:] {
				if b.pos < a.end {
					addEdge(a.node, b.node, b.pos, "")
				}
			}
			for _, c := range u.calls {
				if c.pos > a.pos && c.pos < a.end {
					for _, n := range sortedSet(transAcq(c.fn)) {
						addEdge(a.node, n, c.pos, c.fn.Name())
					}
				}
			}
		}
	}

	targets := map[*driftlint.Package]bool{}
	for _, pkg := range prog.Targets {
		targets[pkg] = true
	}
	for _, cycle := range findCycles(edges) {
		first := edges[cycle[0]][cycle[1]]
		if !targets[prog.PackageAt(prog.Fset.Position(first.pos))] {
			continue // witness lives in a dependency outside this run's targets
		}
		var parts []string
		for i := 0; i < len(cycle)-1; i++ {
			w := edges[cycle[i]][cycle[i+1]]
			where := "here"
			if i > 0 {
				where = prog.Fset.Position(w.pos).String()
			}
			if w.via != "" {
				where += " via " + w.via
			}
			parts = append(parts, fmt.Sprintf("%s → %s (%s)", cycle[i], cycle[i+1], where))
		}
		pp.Reportf(first.pos, "lock-order cycle: %s — these paths acquire the same mutexes in opposite orders and can deadlock; pick one global order", strings.Join(parts, ", "))
	}
	return nil
}

// findCycles returns one representative cycle per strongly connected
// component of size >= 2, as a node path [n0, n1, ..., n0], starting at
// the component's lexicographically smallest node. Deterministic.
func findCycles(edges map[string]map[string]edgeInfo) [][]string {
	nodes := sortedSetKeys(edges)
	for _, m := range edges {
		for to := range m {
			if _, ok := edges[to]; !ok {
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)
	nodes = dedup(nodes)

	// Tarjan's SCC, iteratively-indexed over the sorted node list.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedSetKeys2(edges[v]) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })

	var cycles [][]string
	for _, scc := range sccs {
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		if path := shortestCycle(scc[0], edges, inSCC); path != nil {
			cycles = append(cycles, path)
		}
	}
	return cycles
}

// shortestCycle finds a shortest path start -> ... -> start within the
// component via BFS with sorted neighbor expansion.
func shortestCycle(start string, edges map[string]map[string]edgeInfo, in map[string]bool) []string {
	parent := map[string]string{}
	queue := []string{start}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, w := range sortedSetKeys2(edges[v]) {
			if !in[w] {
				continue
			}
			if w == start {
				path := []string{w}
				for at := v; ; at = parent[at] {
					path = append([]string{at}, path...)
					if at == start {
						return path
					}
				}
			}
			if _, seen := parent[w]; !seen {
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// scanUnits produces the ordering units for one declaration: the body
// with go subtrees removed, plus one unit per spawned goroutine
// literal (recursively).
func scanUnits(fi *driftlint.FuncInfo) []*unit {
	var units []*unit
	var scan func(body *ast.BlockStmt)
	scan = func(body *ast.BlockStmt) {
		u := &unit{fn: fi.Func}
		deferred := map[*ast.CallExpr]bool{}
		type unlock struct {
			node string
			pos  token.Pos
		}
		var unlocks []unlock
		var goBodies []*ast.BlockStmt
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					goBodies = append(goBodies, lit.Body)
				}
				return false // a different goroutine: no inherited locks
			case *ast.DeferStmt:
				deferred[n.Call] = true
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if ok && isMutexMethod(sel.Sel.Name) && isMutexType(fi.Pkg.Info.TypeOf(sel.X)) {
					node := lockNodeOf(fi.Pkg.Info, sel.X)
					if node == "" {
						return true
					}
					switch sel.Sel.Name {
					case "Lock", "RLock":
						u.acqs = append(u.acqs, acq{node: node, pos: n.Pos(), end: body.End()})
					case "Unlock", "RUnlock":
						if !deferred[n] {
							unlocks = append(unlocks, unlock{node: node, pos: n.Pos()})
						}
					}
					return true
				}
				if fn := driftlint.CalleeFunc(fi.Pkg.Info, n); fn != nil {
					u.calls = append(u.calls, callsite{fn: fn, pos: n.Pos()})
				}
			}
			return true
		})
		for i := range u.acqs {
			for _, ul := range unlocks {
				if ul.node == u.acqs[i].node && ul.pos > u.acqs[i].pos && ul.pos < u.acqs[i].end {
					u.acqs[i].end = ul.pos
				}
			}
		}
		units = append(units, u)
		for _, gb := range goBodies {
			scan(gb)
		}
	}
	scan(fi.Decl.Body)
	return units
}

// lockNodeOf names the type-level lock an expression denotes:
// "pkg.Type.field" for a struct's mutex field, "pkg.var" for a
// package-level mutex, "" for anything instance-ambiguous (locals,
// map entries, results of calls).
func lockNodeOf(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		s := info.Selections[x]
		if s == nil || s.Kind() != types.FieldVal {
			return ""
		}
		named := driftlint.NamedOf(s.Recv())
		if named == nil {
			return ""
		}
		return nodeName(named, s.Obj().Name())
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return ""
}

func nodeName(named *types.Named, field string) string {
	pkg := ""
	if named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg().Name() + "."
	}
	return pkg + named.Obj().Name() + "." + field
}

func isMutexMethod(name string) bool {
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return true
	}
	return false
}

func isMutexType(t types.Type) bool {
	named := driftlint.NamedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedSetKeys(m map[string]map[string]edgeInfo) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedSetKeys2(m map[string]edgeInfo) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
