// Package ctxcall implements the lbsvet pass that keeps daemons and load
// tools deadline-clean: code in a main package, or in the stack package
// whose tier constructors dial the daemons' links, must never issue a
// bare (*protocol.Client).Call — which blocks until the transport gives
// up — and every protocol.Dial / DialAnonymizer / DialDatabase must carry
// a WithCallTimeout option, either inline or through the options slice it
// spreads. Other library packages are exempt: they receive deadlines
// from their callers via CallCtx.
package ctxcall

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the ctxcall pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcall",
	Doc: "require CallCtx and WithCallTimeout in main packages and the stack package\n\n" +
		"Bare Client.Call has no deadline; a daemon or load tool wedged on a\n" +
		"dead peer is an outage, not a retry.",
	Run: run,
}

const protocolPath = "repro/internal/protocol"

func run(pass *analysis.Pass) (interface{}, error) {
	if name := pass.Pkg.Name(); name != "main" && name != "stack" {
		return nil, nil
	}
	// Option-slice variables defined from composite literals, for resolving
	// `opts...` spreads at Dial sites.
	sliceDefs := collectSliceDefs(pass)

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != protocolPath {
				return true
			}
			switch callee.Name() {
			case "Call":
				if recvIsClient(callee) {
					pass.Reportf(call.Pos(),
						"bare Client.Call has no deadline; use CallCtx with a context deadline")
				}
			case "Dial", "DialAnonymizer", "DialDatabase":
				if callee.Type().(*types.Signature).Recv() != nil {
					return true
				}
				if !hasCallTimeout(pass, call, sliceDefs) {
					pass.Reportf(call.Pos(),
						"%s without WithCallTimeout: calls on this client can block forever",
						callee.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}

// collectSliceDefs maps each variable assigned a composite literal to
// that literal, so spread arguments can be looked through.
func collectSliceDefs(pass *analysis.Pass) map[types.Object]*ast.CompositeLit {
	defs := make(map[types.Object]*ast.CompositeLit)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					id, ok := l.(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.CompositeLit); ok && obj != nil {
						defs[obj] = lit
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i >= len(n.Values) {
						break
					}
					if lit, ok := ast.Unparen(n.Values[i]).(*ast.CompositeLit); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							defs[obj] = lit
						}
					}
				}
			}
			return true
		})
	}
	return defs
}

// hasCallTimeout reports whether a Dial call's arguments include a
// WithCallTimeout option, looking through one level of spread variable.
func hasCallTimeout(pass *analysis.Pass, call *ast.CallExpr, sliceDefs map[types.Object]*ast.CompositeLit) bool {
	exprs := call.Args
	if call.Ellipsis.IsValid() && len(call.Args) > 0 {
		last := ast.Unparen(call.Args[len(call.Args)-1])
		switch last := last.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[last]
			if lit, ok := sliceDefs[obj]; ok {
				exprs = append(exprs[:len(exprs)-1:len(exprs)-1], lit.Elts...)
			} else {
				// An options slice we cannot see into (built elsewhere,
				// passed in): give it the benefit of the doubt.
				return true
			}
		case *ast.CompositeLit:
			exprs = append(exprs[:len(exprs)-1:len(exprs)-1], last.Elts...)
		}
	}
	for _, a := range exprs {
		found := false
		ast.Inspect(a, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := calleeFunc(pass, inner); f != nil && f.Pkg() != nil &&
				f.Pkg().Path() == protocolPath && f.Name() == "WithCallTimeout" {
				found = true
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// recvIsClient reports whether fn is a method on protocol.Client,
// directly or promoted through embedding.
func recvIsClient(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Client" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == protocolPath
}
