// Package wiresync cross-checks the wire protocol's codec coverage:
// for every message struct marked
//
//	//driftlint:wire encode=Func[,Recv.Method...] decode=Func[,...]
//
// each field must be referenced (selected, or set in a keyed composite
// literal) in at least one encode function AND one decode function —
// adding a field to a protocol message without extending both sides
// then fails lint instead of silently shipping zero values to peers.
//
// On top of field parity, every encode function must reach a checksum
// computation through the whole-program call graph (a call into
// hash/crc32 anywhere in it — in this tree wire.Format.Seal, two
// packages away), so no message type can ship without corruption
// detection. The reading side needs no analyzer: there is one framing
// reader, internal/wire's, and its own table test pins the magic,
// version, cap and CRC checks.
package wiresync

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"videodrift/internal/analysis/driftlint"
)

// Analyzer is the wire-codec parity and integrity checker.
var Analyzer = &driftlint.Analyzer{
	Name: "wiresync",
	Doc:  "require every field of a marked wire message to be covered by encode and decode, and every encoder to reach a checksum",
	Run:  run,
}

// spec is one parsed //driftlint:wire directive.
type spec struct {
	name   string
	pos    token.Pos
	named  *types.Named
	fields *types.Struct
	encode []string
	decode []string
}

func run(pass *driftlint.Pass) error {
	specs := collectSpecs(pass)
	if len(specs) == 0 {
		return nil
	}
	decls := collectFuncs(pass)
	for _, sp := range specs {
		enc := referencedFields(pass, sp, sp.encode, decls, "encode")
		dec := referencedFields(pass, sp, sp.decode, decls, "decode")
		if enc == nil || dec == nil {
			continue // directive itself was bad; already reported
		}
		for i := 0; i < sp.fields.NumFields(); i++ {
			f := sp.fields.Field(i)
			if f.Name() == "_" {
				continue
			}
			if !enc[f.Name()] {
				pass.Reportf(f.Pos(),
					"field %s of wire message %s is not referenced by its encode path (%s); peers would receive zero values for it",
					f.Name(), sp.name, strings.Join(sp.encode, ", "))
			}
			if !dec[f.Name()] {
				pass.Reportf(f.Pos(),
					"field %s of wire message %s is not referenced by its decode path (%s); its wire bytes would be dropped on receive",
					f.Name(), sp.name, strings.Join(sp.decode, ", "))
			}
		}
		for _, name := range sp.encode {
			for _, fd := range decls[name] {
				if fd.Body == nil {
					continue
				}
				if !reachesCRC(pass, fd) {
					pass.Reportf(fd.Pos(),
						"wire encoder %s never computes a payload checksum (no call into hash/crc32 anywhere in its call graph); receivers cannot detect corruption",
						name)
				}
			}
		}
	}
	return nil
}

// reachesCRC reports whether the declaration's whole-program call graph
// contains a call into hash/crc32.
func reachesCRC(pass *driftlint.Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	for _, fi := range pass.Prog.Reachable([]*types.Func{fn}, 0) {
		found := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			found = found || isCRCCall(fi.Pkg.Info, n)
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isCRCCall matches any call into hash/crc32.
func isCRCCall(info *types.Info, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := driftlint.CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "hash/crc32"
}

// collectSpecs finds marked struct types and parses their directives.
func collectSpecs(pass *driftlint.Pass) []*spec {
	var specs []*spec
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, s := range gen.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gen.Specs) == 1 {
					doc = gen.Doc
				}
				line, ok := directiveLine(doc)
				if !ok {
					continue
				}
				sp := parseSpec(pass, ts, line)
				if sp != nil {
					specs = append(specs, sp)
				}
			}
		}
	}
	return specs
}

func directiveLine(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if rest, ok := strings.CutPrefix(text, "//driftlint:wire"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

func parseSpec(pass *driftlint.Pass, ts *ast.TypeSpec, line string) *spec {
	sp := &spec{name: ts.Name.Name, pos: ts.Pos()}
	for _, field := range strings.Fields(line) {
		switch {
		case strings.HasPrefix(field, "encode="):
			sp.encode = strings.Split(strings.TrimPrefix(field, "encode="), ",")
		case strings.HasPrefix(field, "decode="):
			sp.decode = strings.Split(strings.TrimPrefix(field, "decode="), ",")
		default:
			pass.Reportf(ts.Pos(), "malformed //driftlint:wire directive: unknown token %q", field)
			return nil
		}
	}
	if len(sp.encode) == 0 || len(sp.decode) == 0 {
		pass.Reportf(ts.Pos(), "//driftlint:wire on %s needs encode= and decode= function lists", sp.name)
		return nil
	}
	obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(ts.Pos(), "//driftlint:wire on %s, which is not a struct type", sp.name)
		return nil
	}
	sp.named = named
	sp.fields = st
	return sp
}

// collectFuncs indexes the package's function declarations by bare name
// and by "Receiver.Name".
func collectFuncs(pass *driftlint.Pass) map[string][]*ast.FuncDecl {
	decls := map[string][]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
			if recv := driftlint.RecvBaseName(fd); recv != "" {
				decls[recv+"."+fd.Name.Name] = append(decls[recv+"."+fd.Name.Name], fd)
			}
		}
	}
	return decls
}

// referencedFields walks the named functions and returns the set of
// sp's field names they reference. A nil return means the directive
// named a function that does not exist (reported here).
func referencedFields(pass *driftlint.Pass, sp *spec, names []string, decls map[string][]*ast.FuncDecl, role string) map[string]bool {
	refs := map[string]bool{}
	for _, name := range names {
		fds := decls[name]
		if len(fds) == 0 {
			pass.Reportf(sp.pos,
				"//driftlint:wire on %s names unknown %s function %q", sp.name, role, name)
			return nil
		}
		for _, fd := range fds {
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sel := pass.TypesInfo.Selections[n]
					if sel != nil && sel.Kind() == types.FieldVal &&
						driftlint.NamedOf(sel.Recv()) == sp.named {
						refs[sel.Obj().Name()] = true
					}
				case *ast.CompositeLit:
					if driftlint.NamedOf(pass.TypesInfo.TypeOf(n)) != sp.named {
						return true
					}
					keyed := false
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							keyed = true
							if id, ok := kv.Key.(*ast.Ident); ok {
								refs[id.Name] = true
							}
						}
					}
					if !keyed && len(n.Elts) > 0 {
						// Positional literal initializes every field.
						for i := 0; i < sp.fields.NumFields(); i++ {
							refs[sp.fields.Field(i).Name()] = true
						}
					}
				}
				return true
			})
		}
	}
	return refs
}
