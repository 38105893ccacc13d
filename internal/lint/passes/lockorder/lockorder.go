// Package lockorder implements the lbsvet pass that enforces the repo's
// documented lock hierarchy. The tree ranks four classes: the
// anonymizer's shard stripes, then its spatial index, then the router's
// residency map, then the scenario engine's stack:
//
//	mu sync.Mutex //lint:lock stripe@0
//	idxMu sync.RWMutex //lint:lock index@1
//	mu sync.Mutex //lint:lock router@2
//	mu sync.Mutex //lint:lock stack@3
//
// Each mutex struct field is classified by the //lint:lock directive on it.
// Lower ranks must be acquired first. The pass walks every function in
// source order tracking the set of held classes; acquiring a class of
// lower rank while holding one of higher rank is reported, as is calling
// a function that (transitively) performs such an acquisition. Function
// literals are separate lock contexts: the tree launches them as
// goroutines, which serialize with their parent through channels and wait
// groups, not by sharing its lock stack.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
	"repro/internal/lint/loader"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforce the //lint:lock rank order of mutex acquisitions\n\n" +
		"Mutex fields are classified with //lint:lock <class>@<rank>; lower\n" +
		"ranks must be acquired first.",
	Run: run,
}

type lockClass struct {
	name string
	rank int
}

type cacheKey struct{}

type result struct {
	byPkg map[string][]analysis.Diagnostic
}

// world is the per-run whole-program state.
type world struct {
	fset    *token.FileSet
	pkgs    []*pkgUnit
	classes map[types.Object]lockClass // annotated mutex field -> class
	// acquires maps each function to every lock class it may acquire,
	// directly or through callees (goroutine bodies excluded).
	acquires map[*types.Func]map[string]lockClass
	bodies   map[*types.Func]*fnUnit
	diags    map[string][]analysis.Diagnostic
}

type pkgUnit struct {
	path  string
	files []*ast.File
	info  *types.Info
}

type fnUnit struct {
	pkg  *pkgUnit
	body *ast.BlockStmt
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Prog != nil {
		res, ok := pass.Prog.Cache[cacheKey{}].(*result)
		if !ok {
			res = analyze(pass.Fset, programUnits(pass.Prog))
			pass.Prog.Cache[cacheKey{}] = res
		}
		for _, d := range res.byPkg[pass.Pkg.Path()] {
			pass.Report(d)
		}
		return nil, nil
	}
	// Modular mode: single-package view. The repo's lock hierarchy lives in
	// one package, so this loses only cross-package transitive acquires.
	res := analyze(pass.Fset, []*pkgUnit{{path: pass.Pkg.Path(), files: pass.Files, info: pass.TypesInfo}})
	for _, d := range res.byPkg[pass.Pkg.Path()] {
		pass.Report(d)
	}
	return nil, nil
}

func programUnits(prog *loader.Program) []*pkgUnit {
	var units []*pkgUnit
	for _, p := range prog.Packages {
		units = append(units, &pkgUnit{path: p.Types.Path(), files: p.Files, info: p.Info})
	}
	return units
}

func analyze(fset *token.FileSet, pkgs []*pkgUnit) *result {
	w := &world{
		fset:     fset,
		pkgs:     pkgs,
		classes:  make(map[types.Object]lockClass),
		acquires: make(map[*types.Func]map[string]lockClass),
		bodies:   make(map[*types.Func]*fnUnit),
		diags:    make(map[string][]analysis.Diagnostic),
	}
	w.collectClasses()
	w.collectBodies()
	w.summarize()
	w.check()
	res := &result{byPkg: w.diags}
	for _, ds := range res.byPkg {
		sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
	}
	return res
}

func (w *world) report(pkg *pkgUnit, pos token.Pos, format string, args ...interface{}) {
	w.diags[pkg.path] = append(w.diags[pkg.path], analysis.Diagnostic{
		Pos: pos, Category: "lockorder", Message: fmt.Sprintf(format, args...),
	})
}

// collectClasses finds //lint:lock annotated struct fields.
func (w *world) collectClasses() {
	for _, pkg := range w.pkgs {
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					d, ok := directive.FromDoc(field.Comment, "lock")
					if !ok {
						d, ok = directive.FromDoc(field.Doc, "lock")
					}
					if !ok {
						continue
					}
					name, rankStr, found := strings.Cut(d.Args, "@")
					rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
					if !found || name == "" || err != nil {
						w.report(pkg, d.Pos, "malformed //lint:lock directive %q: want <class>@<rank>", d.Args)
						continue
					}
					for _, id := range field.Names {
						if obj := pkg.info.Defs[id]; obj != nil {
							w.classes[obj] = lockClass{name: strings.TrimSpace(name), rank: rank}
						}
					}
				}
				return true
			})
		}
	}
}

func (w *world) collectBodies() {
	for _, pkg := range w.pkgs {
		for _, file := range pkg.files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.info.Defs[fd.Name].(*types.Func); ok {
					w.bodies[fn] = &fnUnit{pkg: pkg, body: fd.Body}
				}
			}
		}
	}
}

// lockOp classifies a call as Lock/RLock (acquire) or Unlock/RUnlock
// (release) on an annotated field, returning the class.
func (w *world) lockOp(pkg *pkgUnit, call *ast.CallExpr) (cls lockClass, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockClass{}, false, false
	}
	var verb string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		verb = "acquire"
	case "Unlock", "RUnlock":
		verb = "release"
	default:
		return lockClass{}, false, false
	}
	inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return lockClass{}, false, false
	}
	obj := pkg.info.Uses[inner.Sel]
	if obj == nil {
		return lockClass{}, false, false
	}
	cls, ok = w.classes[obj]
	return cls, verb == "acquire", ok
}

// callee resolves a call to a declared function with a body.
func (w *world) callee(pkg *pkgUnit, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// summarize computes, to a fixpoint, every lock class each function may
// acquire directly or through its (non-goroutine) callees.
func (w *world) summarize() {
	for fn := range w.bodies {
		w.acquires[fn] = make(map[string]lockClass)
	}
	for changed := true; changed; {
		changed = false
		for fn, fu := range w.bodies {
			set := w.acquires[fn]
			ast.Inspect(fu.body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // separate lock context
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if cls, acq, ok := w.lockOp(fu.pkg, call); ok && acq {
					if _, have := set[cls.name]; !have {
						set[cls.name] = cls
						changed = true
					}
				}
				if callee := w.callee(fu.pkg, call); callee != nil {
					for name, cls := range w.acquires[callee] {
						if _, have := set[name]; !have {
							set[name] = cls
							changed = true
						}
					}
				}
				return true
			})
		}
	}
}

// check walks every function (and every function literal, as a fresh
// context) reporting out-of-order acquisitions.
func (w *world) check() {
	for fn, fu := range w.bodies {
		_ = fn
		c := &checker{w: w, pkg: fu.pkg, held: make(map[string]heldLock)}
		c.stmt(fu.body)
	}
}

type heldLock struct {
	cls lockClass
	pos token.Pos
}

type checker struct {
	w    *world
	pkg  *pkgUnit
	held map[string]heldLock
}

func (c *checker) clone() *checker {
	held := make(map[string]heldLock, len(c.held))
	for k, v := range c.held {
		held[k] = v
	}
	return &checker{w: c.w, pkg: c.pkg, held: held}
}

// fresh starts an empty lock context (goroutines, function literals).
func (c *checker) fresh() *checker {
	return &checker{w: c.w, pkg: c.pkg, held: make(map[string]heldLock)}
}

func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			c.stmt(st)
		}
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.expr(r)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				c.expr(call)
				return false
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r)
		}
	case *ast.IfStmt:
		c.stmt(s.Init)
		if s.Cond != nil {
			c.expr(s.Cond)
		}
		c.clone().stmt(s.Body)
		if s.Else != nil {
			c.clone().stmt(s.Else)
		}
	case *ast.ForStmt:
		c.stmt(s.Init)
		if s.Cond != nil {
			c.expr(s.Cond)
		}
		c.clone().stmt(s.Body)
	case *ast.RangeStmt:
		c.expr(s.X)
		c.clone().stmt(s.Body)
	case *ast.SwitchStmt:
		c.stmt(s.Init)
		if s.Tag != nil {
			c.expr(s.Tag)
		}
		c.clone().stmt(s.Body)
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init)
		c.clone().stmt(s.Body)
	case *ast.CaseClause:
		for _, st := range s.Body {
			c.stmt(st)
		}
	case *ast.SelectStmt:
		c.clone().stmt(s.Body)
	case *ast.CommClause:
		c.stmt(s.Comm)
		for _, st := range s.Body {
			c.stmt(st)
		}
	case *ast.SendStmt:
		c.expr(s.Value)
	case *ast.GoStmt:
		// A goroutine is a fresh lock context; still check its body.
		c.goCall(s.Call)
	case *ast.DeferStmt:
		// Deferred unlocks release at function end; treating the lock as
		// held for the rest of the walk is exactly right. Deferred lock
		// acquisitions are not a pattern in this tree.
		if cls, acq, ok := c.w.lockOp(c.pkg, s.Call); ok && !acq {
			_ = cls
			return
		}
		c.expr(s.Call)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	}
}

func (c *checker) goCall(call *ast.CallExpr) {
	for _, a := range call.Args {
		c.expr(a)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.fresh().stmt(lit.Body)
	}
}

func (c *checker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.fresh().stmt(n.Body)
			return false
		case *ast.CallExpr:
			c.call(n)
			return false
		}
		return true
	})
}

func (c *checker) call(call *ast.CallExpr) {
	// Arguments and nested calls first (source order).
	for _, a := range call.Args {
		c.expr(a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		ast.Inspect(sel.X, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				c.call(inner)
				return false
			}
			return true
		})
	}

	if cls, acq, ok := c.w.lockOp(c.pkg, call); ok {
		if !acq {
			delete(c.held, cls.name)
			return
		}
		c.checkAcquire(call.Pos(), cls, "")
		c.held[cls.name] = heldLock{cls: cls, pos: call.Pos()}
		return
	}
	if callee := c.w.callee(c.pkg, call); callee != nil {
		for _, cls := range c.w.acquires[callee] {
			c.checkAcquire(call.Pos(), cls, callee.Name())
		}
	}
}

func (c *checker) checkAcquire(pos token.Pos, cls lockClass, via string) {
	for _, h := range c.held {
		if h.cls.rank > cls.rank {
			if via != "" {
				c.w.report(c.pkg, pos,
					"call to %s acquires %s lock (rank %d) while holding %s lock (rank %d); lower ranks must be acquired first",
					via, cls.name, cls.rank, h.cls.name, h.cls.rank)
			} else {
				c.w.report(c.pkg, pos,
					"acquires %s lock (rank %d) while holding %s lock (rank %d); lower ranks must be acquired first",
					cls.name, cls.rank, h.cls.name, h.cls.rank)
			}
		}
	}
}
