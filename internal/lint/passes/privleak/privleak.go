// Package privleak implements the lbsvet taint pass that statically
// proves the repo's privacy trust boundary: an exact user location that
// enters the anonymizer tier must never reach a server-bound wire encode,
// a log statement, or an observability metric without passing through a
// declared cloaking boundary.
//
// The trust-boundary specification lives in the source tree itself as
// //lint: directives (see package repro/internal/lint/directive):
//
//   - //lint:source marks the functions whose results carry exact
//     locations — on this tree, the wire-ingress decode chokepoint.
//   - //lint:sanitized on a call line declares that call a cloaking
//     boundary: taint does not flow through it. The justification text is
//     mandatory and is itself checked, as is every //lint: verb: a typo'd
//     one would silently disable the invariant it meant to declare.
//   - //lint:trusted-ingress on a function permits wire-encode sinks
//     inside it — the user-side client encoding the user's own location
//     toward the trusted anonymizer tier.
//
// The analysis is interprocedural and runs in three phases over the whole
// program: (A) per-function taint summaries (which parameters flow to
// results) computed to a cross-function fixpoint; (B) caller-to-callee
// taint propagation, so a function that receives an exact location as an
// argument is analyzed with that parameter tainted; (C) a reporting pass
// that flags every sink reached by taint. If the program declares no
// //lint:source at all the pass fails loudly rather than vacuously
// passing: an undeclared boundary is not a clean one.
package privleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
	"repro/internal/lint/loader"
)

// Analyzer is the privleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "privleak",
	Doc: "report exact user locations flowing to wire encodes, logs, or metrics\n\n" +
		"Sources, sanitizers and trusted ingress points are declared in the tree\n" +
		"with //lint:source, //lint:sanitized and //lint:trusted-ingress.",
	Run: run,
}

const (
	obsPath   = "repro/internal/obs"
	codecPath = "repro/internal/codec"
)

type cacheKey struct{}

// result is the memoized whole-program outcome, keyed by package path.
type result struct {
	byPkg map[string][]analysis.Diagnostic
	err   error
}

func run(pass *analysis.Pass) (interface{}, error) {
	res, ok := pass.Prog.Cache[cacheKey{}].(*result)
	if !ok {
		res = analyze(pass.Prog)
		pass.Prog.Cache[cacheKey{}] = res
	}
	if res.err != nil {
		return nil, res.err
	}
	for _, d := range res.byPkg[pass.Pkg.Path()] {
		pass.Report(d)
	}
	return nil, nil
}

// funcInfo is one function declaration in the program.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *loader.Package
	dmap directive.Map

	// source: calls to this function return tainted values.
	source bool
	// trustedIngress permits Encoder sinks inside this function.
	trustedIngress bool
	// sinkInternal marks functions that ARE the sink machinery (obs
	// package, Encoder methods); caller taint is not propagated into them.
	sinkInternal bool

	// nparams is the receiver-adjusted parameter count.
	nparams int
	params  []types.Object // receiver first when present

	// summary: paramToRet[i] is a bitmask over result slots that taint on
	// parameter i reaches; sourceRet is the mask an internal source
	// reaches. Per-slot masks keep the ubiquitous (value, error) shape
	// precise: an error string mentioning a location does not taint the
	// value returned beside it.
	paramToRet []uint64
	sourceRet  uint64

	// paramTaint[i]: some caller passes a tainted argument for parameter i.
	paramTaint []bool
}

type global struct {
	prog  *loader.Program
	fns   map[*types.Func]*funcInfo
	order []*funcInfo
	dmaps map[*ast.File]directive.Map
	diags map[string]map[string]analysis.Diagnostic // pkg path -> dedupe key -> diag
	srcs  int
}

func analyze(prog *loader.Program) *result {
	g := &global{
		prog:  prog,
		fns:   make(map[*types.Func]*funcInfo),
		dmaps: make(map[*ast.File]directive.Map),
		diags: make(map[string]map[string]analysis.Diagnostic),
	}
	g.index()
	if g.srcs == 0 {
		return &result{err: fmt.Errorf("privleak: no //lint:source directives in the program; the trust boundary is undeclared")}
	}
	g.checkDirectives()
	g.summarize()   // phase A
	g.propagate()   // phase B
	g.reportSinks() // phase C

	res := &result{byPkg: make(map[string][]analysis.Diagnostic)}
	for path, m := range g.diags {
		var ds []analysis.Diagnostic
		for _, d := range m {
			ds = append(ds, d)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
		res.byPkg[path] = ds
	}
	return res
}

func (g *global) dmap(pkg *loader.Package, file *ast.File) directive.Map {
	m, ok := g.dmaps[file]
	if !ok {
		m = directive.ForFile(g.prog.Fset, file)
		g.dmaps[file] = m
	}
	return m
}

// index collects every function declaration and its directives.
func (g *global) index() {
	for _, pkg := range g.prog.Packages {
		for _, file := range pkg.Files {
			dmap := g.dmap(pkg, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{obj: obj, decl: fd, pkg: pkg, dmap: dmap}
				sig := obj.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil {
					fi.params = append(fi.params, recv)
				}
				for i := 0; i < sig.Params().Len(); i++ {
					fi.params = append(fi.params, sig.Params().At(i))
				}
				fi.nparams = len(fi.params)
				fi.paramToRet = make([]uint64, fi.nparams)
				fi.paramTaint = make([]bool, fi.nparams)

				if _, ok := directive.FromDoc(fd.Doc, "source"); ok {
					g.srcs++
					fi.source = true
				}
				if _, ok := directive.FromDoc(fd.Doc, "trusted-ingress"); ok {
					fi.trustedIngress = true
				}
				if pkg.Types.Path() == obsPath {
					fi.sinkInternal = true
				}
				if pkg.Types.Path() == codecPath && fd.Recv != nil {
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						rt := recv.Type()
						if p, ok := rt.(*types.Pointer); ok {
							rt = p.Elem()
						}
						if named, ok := rt.(*types.Named); ok && named.Obj().Name() == "Encoder" {
							fi.sinkInternal = true
						}
					}
				}
				g.fns[obj] = fi
				g.order = append(g.order, fi)
			}
		}
	}
}

// checkDirectives validates the directives themselves: an unknown verb
// is a typo that checks nothing, and a sanitized boundary without a
// justification is an error, not a free pass.
func (g *global) checkDirectives() {
	for _, pkg := range g.prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					d, ok := directive.Parse(c.Text)
					if !ok {
						continue
					}
					if !slices.Contains(directive.Verbs, d.Verb) {
						g.report(pkg, c.Pos(), "unknown //lint: verb %q (known: %s); a typo here silently disables the invariant",
							d.Verb, strings.Join(directive.Verbs, ", "))
					}
					if d.Verb == "sanitized" && d.Args == "" {
						g.report(pkg, c.Pos(), "//lint:sanitized requires a justification explaining why the boundary is safe")
					}
				}
			}
		}
	}
}

func (g *global) report(pkg *loader.Package, pos token.Pos, format string, args ...interface{}) {
	path := pkg.Types.Path()
	m := g.diags[path]
	if m == nil {
		m = make(map[string]analysis.Diagnostic)
		g.diags[path] = m
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	m[key] = analysis.Diagnostic{Pos: pos, Category: "privleak", Message: msg}
}

// summarize computes phase A: per-function parameter-to-result flow
// summaries, iterated to a fixpoint so summaries may depend on each other.
func (g *global) summarize() {
	for changed := true; changed; {
		changed = false
		for _, fi := range g.order {
			// One evaluation per parameter isolates which inputs reach the
			// results; one with no taint catches internal sources.
			for i := -1; i < fi.nparams; i++ {
				ec := g.newEval(fi, false)
				if i >= 0 {
					ec.taint(fi.params[i])
				}
				ec.evalBody()
				if i >= 0 {
					if fi.paramToRet[i]|ec.retMask != fi.paramToRet[i] {
						fi.paramToRet[i] |= ec.retMask
						changed = true
					}
				} else if fi.sourceRet|ec.retMask != fi.sourceRet {
					fi.sourceRet |= ec.retMask
					changed = true
				}
			}
		}
	}
}

// propagate computes phase B: callers with tainted arguments taint the
// callee's parameters, to a fixpoint over the call graph.
func (g *global) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fi := range g.order {
			ec := g.newEval(fi, true)
			ec.seedParams()
			ec.evalBody()
			if ec.spread {
				changed = true
			}
		}
	}
}

// reportSinks runs phase C: one reporting evaluation per function with its
// final parameter taint.
func (g *global) reportSinks() {
	for _, fi := range g.order {
		ec := g.newEval(fi, true)
		ec.reporting = true
		ec.seedParams()
		ec.evalBody()
	}
}

// evalCtx evaluates one function body, tracking which objects hold
// tainted values. Taint is monotone: the body is re-walked until the
// tainted set stops growing, so loops and use-before-assign ordering
// converge without a real CFG.
type evalCtx struct {
	g         *global
	fi        *funcInfo
	tainted   map[types.Object]bool
	record    bool // propagate argument taint into callee paramTaint
	reporting bool
	spread    bool // a callee's paramTaint grew
	// retMask is the bitmask of result slots observed tainted.
	retMask uint64
	// lastMask is the per-slot taint of the call expression most recently
	// evaluated, consumed by multi-value assignments.
	lastMask uint64
	litDepth int // > 0 while inside a FuncLit body
}

func (g *global) newEval(fi *funcInfo, record bool) *evalCtx {
	return &evalCtx{g: g, fi: fi, tainted: make(map[types.Object]bool), record: record}
}

func (c *evalCtx) taint(obj types.Object) {
	if obj != nil {
		c.tainted[obj] = true
	}
}

// seedParams taints the parameters tainted by callers in phase B.
func (c *evalCtx) seedParams() {
	for i, t := range c.fi.paramTaint {
		if t {
			c.taint(c.fi.params[i])
		}
	}
}

func (c *evalCtx) evalBody() {
	for {
		before := len(c.tainted)
		c.stmt(c.fi.decl.Body)
		if len(c.tainted) == before {
			return
		}
	}
}

func (c *evalCtx) info() *types.Info { return c.fi.pkg.Info }

// obj resolves an expression to the variable object it names, looking
// through parens, stars, indexes and field selections to the root.
func (c *evalCtx) obj(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if o := c.info().Defs[e]; o != nil {
			return o
		}
		return c.info().Uses[e]
	case *ast.ParenExpr:
		return c.obj(e.X)
	case *ast.StarExpr:
		return c.obj(e.X)
	case *ast.IndexExpr:
		return c.obj(e.X)
	case *ast.SelectorExpr:
		return c.obj(e.X)
	}
	return nil
}

func (c *evalCtx) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			c.stmt(st)
		}
	case *ast.AssignStmt:
		c.assign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					var lhs []ast.Expr
					for _, n := range vs.Names {
						lhs = append(lhs, n)
					}
					c.assign(lhs, vs.Values)
				}
			}
		}
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.ReturnStmt:
		if len(s.Results) == 1 && c.nresults() > 1 {
			// return f() forwarding a multi-value call: adopt its mask.
			if c.expr(s.Results[0]) && c.litDepth == 0 {
				if _, isCall := ast.Unparen(s.Results[0]).(*ast.CallExpr); isCall {
					c.retMask |= c.lastMask
				} else {
					c.retMask |= ^uint64(0)
				}
			}
			break
		}
		for i, r := range s.Results {
			if c.expr(r) && c.litDepth == 0 && i < 64 {
				c.retMask |= 1 << i
			}
		}
		if len(s.Results) == 0 && c.litDepth == 0 {
			c.retMask |= c.namedResultsMask()
		}
	case *ast.IfStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.stmt(s.Body)
		c.stmt(s.Else)
	case *ast.ForStmt:
		c.stmt(s.Init)
		if s.Cond != nil {
			c.expr(s.Cond)
		}
		c.stmt(s.Post)
		c.stmt(s.Body)
	case *ast.RangeStmt:
		t := c.expr(s.X)
		if t {
			if s.Key != nil {
				c.taint(c.obj(s.Key))
			}
			if s.Value != nil {
				c.taint(c.obj(s.Value))
			}
		}
		c.stmt(s.Body)
	case *ast.SwitchStmt:
		c.stmt(s.Init)
		if s.Tag != nil {
			c.expr(s.Tag)
		}
		c.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init)
		c.stmt(s.Assign)
		c.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			c.expr(e)
		}
		for _, st := range s.Body {
			c.stmt(st)
		}
	case *ast.SelectStmt:
		c.stmt(s.Body)
	case *ast.CommClause:
		c.stmt(s.Comm)
		for _, st := range s.Body {
			c.stmt(st)
		}
	case *ast.SendStmt:
		if c.expr(s.Value) {
			c.taint(c.obj(s.Chan))
		}
		c.expr(s.Chan)
	case *ast.GoStmt:
		c.expr(s.Call)
	case *ast.DeferStmt:
		c.expr(s.Call)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	case *ast.IncDecStmt:
		c.expr(s.X)
	}
}

func (c *evalCtx) nresults() int {
	return c.fi.obj.Type().(*types.Signature).Results().Len()
}

func (c *evalCtx) namedResultsMask() uint64 {
	if c.fi.decl.Type.Results == nil {
		return 0
	}
	var mask uint64
	slot := 0
	for _, f := range c.fi.decl.Type.Results.List {
		if len(f.Names) == 0 {
			slot++
			continue
		}
		for _, n := range f.Names {
			if o := c.info().Defs[n]; o != nil && c.tainted[o] && slot < 64 {
				mask |= 1 << slot
			}
			slot++
		}
	}
	return mask
}

func (c *evalCtx) assign(lhs, rhs []ast.Expr) {
	// Evaluate all right-hand sides first (side effects, call recording).
	taints := make([]bool, len(rhs))
	for i, r := range rhs {
		taints[i] = c.expr(r)
	}
	switch {
	case len(rhs) == 1 && len(lhs) > 1:
		if _, isCall := ast.Unparen(rhs[0]).(*ast.CallExpr); isCall {
			// Multi-value call: each result slot carries its own taint.
			for i, l := range lhs {
				if i < 64 && c.lastMask&(1<<i) != 0 {
					c.taint(c.obj(l))
				}
			}
			break
		}
		// Comma-ok forms: everything inherits the expression taint.
		for _, l := range lhs {
			if taints[0] {
				c.taint(c.obj(l))
			}
		}
	default:
		for i, l := range lhs {
			if i < len(taints) && taints[i] {
				c.taint(c.obj(l))
			}
		}
	}
}

// expr computes whether an expression carries taint, recording callee
// parameter taint and reporting sinks along the way.
func (c *evalCtx) expr(e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return false
	case *ast.Ident:
		o := c.info().Uses[e]
		if o == nil {
			o = c.info().Defs[e]
		}
		return o != nil && c.tainted[o]
	case *ast.ParenExpr:
		return c.expr(e.X)
	case *ast.StarExpr:
		return c.expr(e.X)
	case *ast.UnaryExpr:
		return c.expr(e.X)
	case *ast.BinaryExpr:
		l := c.expr(e.X)
		r := c.expr(e.Y)
		return l || r
	case *ast.SelectorExpr:
		// A field of a tainted value is tainted. Package-qualified idents
		// (pkg.Name) resolve through Uses of the selected identifier.
		if c.expr(e.X) {
			return true
		}
		if o := c.info().Uses[e.Sel]; o != nil && c.tainted[o] {
			return true
		}
		return false
	case *ast.IndexExpr:
		l := c.expr(e.X)
		c.expr(e.Index)
		return l
	case *ast.SliceExpr:
		return c.expr(e.X)
	case *ast.TypeAssertExpr:
		return c.expr(e.X)
	case *ast.CompositeLit:
		t := false
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if c.expr(kv.Value) {
					t = true
				}
			} else if c.expr(el) {
				t = true
			}
		}
		return t
	case *ast.KeyValueExpr:
		return c.expr(e.Value)
	case *ast.FuncLit:
		// Closures share their captured objects with the enclosing scope, so
		// the body is analyzed inline against the same tainted set. Sinks
		// inside goroutine bodies are caught here. Returns inside the
		// literal are the literal's, not the enclosing function's.
		c.litDepth++
		c.stmt(e.Body)
		c.litDepth--
		return false
	case *ast.CallExpr:
		return c.call(e)
	case *ast.BasicLit:
		return false
	}
	return false
}

// call handles the interprocedural cases: sanitizer boundaries, source
// functions, summarized module functions, sinks, and unknown callees.
// It returns whether any result is tainted and leaves the per-slot mask
// in c.lastMask.
func (c *evalCtx) call(call *ast.CallExpr) bool {
	mask := c.callMask(call)
	c.lastMask = mask
	return mask != 0
}

func (c *evalCtx) callMask(call *ast.CallExpr) uint64 {
	// A type conversion is not a boundary.
	if tv, ok := c.info().Types[call.Fun]; ok && tv.IsType() {
		if c.expr(call.Args[0]) {
			return ^uint64(0)
		}
		return 0
	}

	sanitized := false
	if _, ok := c.fi.dmap.Find(c.g.prog.Fset, call.Pos(), "sanitized"); ok {
		sanitized = true
	}

	// An immediately invoked (or goroutine) function literal is analyzed
	// inline; other callee shapes are resolved below.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.expr(lit)
	}

	// Evaluate arguments (and the callee expression, which may itself be a
	// tainted value or a nested call).
	argTaint := make([]bool, len(call.Args))
	anyArg := false
	for i, a := range call.Args {
		argTaint[i] = c.expr(a)
		anyArg = anyArg || argTaint[i]
	}

	callee := c.calleeObj(call)
	recvTaint := false
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := c.info().Selections[sel]; isMethod {
			recvExpr = sel.X
			recvTaint = c.expr(sel.X)
		}
	}

	// Builtins neither leak nor launder: len/cap of a tainted slice is a
	// count, not a location; append carries its elements' taint.
	if b, ok := callee.(*types.Builtin); ok {
		if b.Name() == "append" && anyArg {
			return ^uint64(0)
		}
		return 0
	}

	if c.reporting && !sanitized {
		c.checkSink(call, callee, argTaint, anyArg, recvTaint)
	}

	// Known module function: use its summary and record caller taint.
	if fn, ok := callee.(*types.Func); ok {
		if fi, known := c.g.fns[fn]; known {
			if fi.source {
				return ^uint64(0)
			}
			// Map call arguments onto the callee's receiver-first params.
			eff := argTaint
			if recvExpr != nil {
				eff = append([]bool{recvTaint}, argTaint...)
			}
			// Sink machinery (obs package, Encoder methods) is the sink,
			// not a carrier: pushing caller taint into its internals would
			// re-report every leak at the shared helper instead of the
			// caller's call site.
			if c.record && !fi.sinkInternal {
				for i, t := range eff {
					if t && i < fi.nparams && !fi.paramTaint[i] {
						fi.paramTaint[i] = true
						c.spread = true
					}
				}
			}
			if sanitized {
				return 0
			}
			out := fi.sourceRet
			for i, t := range eff {
				if t && i < fi.nparams {
					out |= fi.paramToRet[i]
				}
			}
			// The receiver is parameter 0 of the summary scheme, so its
			// taint is already tracked precisely; no extra receiver
			// tainting here.
			return out
		}
	}

	if sanitized {
		return 0
	}
	// Unknown callee (standard library, interface method, func value):
	// conservatively propagate taint from arguments and receiver to the
	// result, and from arguments into a local receiver.
	c.taintLocalRecv(recvExpr, anyArg)
	if anyArg || recvTaint {
		return ^uint64(0)
	}
	return 0
}

// taintLocalRecv taints a method's receiver when it is a plain local
// identifier and a tainted argument was passed into it.
func (c *evalCtx) taintLocalRecv(recvExpr ast.Expr, anyArg bool) {
	if !anyArg || recvExpr == nil {
		return
	}
	if id, ok := ast.Unparen(recvExpr).(*ast.Ident); ok {
		c.taint(c.obj(id))
	}
}

// calleeObj resolves the called object when the callee is a named
// function, method, or variable.
func (c *evalCtx) calleeObj(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return c.info().Uses[fun]
	case *ast.SelectorExpr:
		return c.info().Uses[fun.Sel]
	}
	return nil
}

// checkSink reports taint reaching one of the three sink families. Only
// tainted arguments count: the leak vector is the value handed over, not
// a tainted receiver invoking an argument-free method.
func (c *evalCtx) checkSink(call *ast.CallExpr, callee types.Object, argTaint []bool, anyArg, recvTaint bool) {
	if !anyArg {
		return
	}
	name, kind := c.sinkKind(call, callee)
	if kind == "" {
		return
	}
	if kind == "wire" && c.fi.trustedIngress {
		return
	}
	c.g.report(c.fi.pkg, call.Pos(),
		"exact location reaches %s sink %s (add a cloaking boundary or //lint:sanitized with justification)",
		kind, name)
}

// sinkKind classifies a call as a wire-encode, log, or metrics sink.
func (c *evalCtx) sinkKind(call *ast.CallExpr, callee types.Object) (name, kind string) {
	// Method receiver type decides Encoder and obs sinks.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isMethod := c.info().Selections[sel]; isMethod {
			rt := s.Recv()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				tn := named.Obj()
				if tn.Pkg() != nil {
					switch {
					case tn.Pkg().Path() == codecPath && tn.Name() == "Encoder":
						return "Encoder." + sel.Sel.Name, "wire"
					case tn.Pkg().Path() == obsPath:
						return tn.Name() + "." + sel.Sel.Name, "metrics"
					}
				}
			}
		}
	}
	if callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "log":
			return "log." + callee.Name(), "log"
		case obsPath:
			if _, isFunc := callee.(*types.Func); isFunc {
				return "obs." + callee.Name(), "metrics"
			}
		}
	}
	// Injected logger func values: the tree's convention is a field or
	// variable named logf with a printf-shaped func type.
	if callee != nil && callee.Name() == "logf" {
		if _, ok := callee.Type().(*types.Signature); ok {
			return "logf", "log"
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "logf" {
		if tv, ok := c.info().Types[call.Fun]; ok {
			if _, isSig := tv.Type.(*types.Signature); isSig {
				return "logf", "log"
			}
		}
	}
	return "", ""
}
