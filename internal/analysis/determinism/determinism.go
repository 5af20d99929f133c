// Package determinism flags nondeterminism sources inside the packages
// whose outputs must replay bit-identically across a checkpoint/restore
// boundary (the warm-restart guarantee of DESIGN.md §9): direct wall
// clock reads, the global math/rand generator, and map iteration whose
// body feeds ordered output or serialized state.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"videodrift/internal/analysis/driftlint"
)

// CriticalPackages are the import paths whose behavior must be a pure
// function of (inputs, seed, checkpoint). Any other package can opt in
// with a //driftlint:deterministic file comment.
var CriticalPackages = []string{
	"videodrift/internal/conformal",
	"videodrift/internal/core",
	"videodrift/internal/ingest",
	"videodrift/internal/stats",
	"videodrift/internal/store",
	"videodrift/internal/parallel",
	"videodrift/internal/faults",
	"videodrift/internal/forensics",
	"videodrift/internal/modelset",
	"videodrift/internal/telemetry",
	"videodrift/internal/wire",
}

// randConstructors are the math/rand package-level functions that build
// explicit, seedable generators rather than touching shared state —
// exactly what the counted stats.RNG wraps.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// Analyzer is the determinism checker.
var Analyzer = &driftlint.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, global math/rand and order-sensitive map iteration in replay-critical packages",
	Run:  run,
}

func run(pass *driftlint.Pass) error {
	if !applies(pass) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func applies(pass *driftlint.Pass) bool {
	for _, p := range CriticalPackages {
		if pass.Pkg.Path() == p {
			return true
		}
	}
	return pass.HasFileDirective("deterministic")
}

func checkCall(pass *driftlint.Pass, call *ast.CallExpr) {
	fn := driftlint.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		// Methods on explicit generators (stats.RNG's inner *rand.Rand,
		// counted sources) are the sanctioned path.
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in a replay-critical package; restored runs would diverge — use the injected clock (telemetry.Config.Now via Tracer.Now) instead",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the global generator, which is not captured by checkpoints; use the counted stats.RNG (stats.NewRNG / RNG.Split) so restarts replay bit-identically",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkRange flags `range m` over a map unless the loop body is
// order-insensitive: map iteration order is randomized per run, so any
// body that appends, emits, or otherwise builds ordered state from it
// breaks replay (and, in encode paths, produces checkpoint bytes that
// differ run to run). Sort the keys first, or suppress with
// //lint:allow determinism when the body is provably commutative.
func checkRange(pass *driftlint.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if orderInsensitive(pass, rng.Body) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is nondeterministic and this loop body is order-sensitive; iterate sorted keys (or keep only commutative updates in the body)")
}

// orderInsensitive reports whether every statement in the loop body
// commutes across iterations: pure accumulator updates (x += e, x++,
// min/max folds are NOT detected and will flag), writes into another
// map, and delete calls. Anything else — append, channel sends,
// function calls, encoder writes — is treated as order-sensitive.
func orderInsensitive(pass *driftlint.Pass, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			// counters commute
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
				token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
				// commutative accumulation
			case token.ASSIGN:
				// plain assignment is safe only when every target is an
				// entry of some map (re-keying commutes; the RHS may not
				// read order-dependent state we can prove, so keep it
				// narrow: RHS must not call anything).
				for _, lhs := range s.Lhs {
					idx, ok := lhs.(*ast.IndexExpr)
					if !ok {
						return false
					}
					if xt := pass.TypesInfo.TypeOf(idx.X); xt == nil {
						return false
					} else if _, isMap := xt.Underlying().(*types.Map); !isMap {
						return false
					}
				}
				for _, rhs := range s.Rhs {
					if containsCall(rhs) {
						return false
					}
				}
			default:
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "delete" {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}
