// Package obsname implements the lbsvet pass that keeps the
// observability namespace coherent: every metric name registered against
// an obs.Registry and every span name started against a trace.Tracer or
// declared as a trace.Stage must be a snake_case string literal, be
// introduced at exactly one call site per package, and share its
// package's family prefix (the first underscore-separated segment:
// anon_*, proto_*, lbs_*, load_*), so dashboards, alerts and trace
// queries can rely on a stable, greppable naming scheme. Metrics and
// spans share one namespace per package — a span family diverging from
// the metric family is exactly the drift the pass exists to catch.
package obsname

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the obsname pass.
var Analyzer = &analysis.Analyzer{
	Name: "obsname",
	Doc: "enforce metric and span naming: snake_case literals, one\n" +
		"introduction site per package, one family prefix per package",
	Run: run,
}

const (
	obsPath   = "repro/internal/obs"
	tracePath = "repro/internal/trace"
)

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// site is one Registry.Counter/Gauge/Histogram call with a literal name.
type site struct {
	name string
	pos  token.Pos
}

func run(pass *analysis.Pass) (interface{}, error) {
	var sites []site
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, arg := "metric", -1
			if isRegistration(pass, call) {
				arg = 0
			} else if idx := spanNameArg(pass, call); idx >= 0 {
				kind, arg = "span", idx
			}
			if arg < 0 || len(call.Args) <= arg {
				return true
			}
			lit, ok := ast.Unparen(call.Args[arg]).(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				pass.Reportf(call.Args[arg].Pos(),
					"%s name must be a string literal so the namespace is statically auditable", kind)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !nameRE.MatchString(name) {
				pass.Reportf(lit.Pos(),
					"%s name %q is not snake_case (want %s)", kind, name, nameRE)
			}
			sites = append(sites, site{name: name, pos: lit.Pos()})
			return true
		})
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })

	// One introduction site per package and name: duplicated metric sites
	// drift apart (different help text, different buckets) and
	// double-register; duplicated span names make two different stages
	// indistinguishable in every timeline.
	first := make(map[string]token.Pos)
	for _, s := range sites {
		if prev, ok := first[s.name]; ok {
			pass.Reportf(s.pos,
				"%q is already introduced in this package at %s; share the one site",
				s.name, pass.Fset.Position(prev))
			continue
		}
		first[s.name] = s.pos
	}

	// Family prefix consistency within the package. Names that already
	// failed the snake_case check are excluded rather than double-reported.
	families := make(map[string]int)
	for name := range first {
		if nameRE.MatchString(name) {
			families[family(name)]++
		}
	}
	if len(families) > 1 {
		major := ""
		for f, n := range families {
			if n > families[major] || (n == families[major] && (major == "" || f < major)) {
				major = f
			}
		}
		for _, s := range sites {
			if first[s.name] == s.pos && nameRE.MatchString(s.name) && family(s.name) != major {
				pass.Reportf(s.pos,
					"%q is outside this package's %s_* family; one family prefix per package",
					s.name, major)
			}
		}
	}
	return nil, nil
}

func family(name string) string {
	f, _, _ := strings.Cut(name, "_")
	return f
}

// spanNameArg returns the index of the span-name argument when call
// introduces a span name — (*trace.Tracer).StartRoot(name),
// (*trace.Tracer).StartSpan(sc, name), the package-level
// trace.Start(ctx, tracer, name), or a stage declaration
// trace.NewStage(name, hist) — and -1 otherwise. The trace package
// itself is exempt: its internals forward caller-supplied names through
// variables, and the naming contract binds the call sites that choose
// names, not the API plumbing.
func spanNameArg(pass *analysis.Pass, call *ast.CallExpr) int {
	if pass.Pkg != nil && pass.Pkg.Path() == tracePath {
		return -1
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return -1
	}
	// Methods on *trace.Tracer.
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		rt := s.Recv()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok {
			return -1
		}
		tn := named.Obj()
		if tn.Pkg() == nil || tn.Pkg().Path() != tracePath || tn.Name() != "Tracer" {
			return -1
		}
		switch sel.Sel.Name {
		case "StartRoot":
			return 0
		case "StartSpan":
			return 1
		}
		return -1
	}
	// The package-level trace.Start helper and stage declarations.
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
		fn.Pkg() != nil && fn.Pkg().Path() == tracePath {
		switch fn.Name() {
		case "Start":
			return 2
		case "NewStage":
			return 0
		}
	}
	return -1
}

// isRegistration reports whether call is (*obs.Registry).Counter, Gauge,
// or Histogram.
func isRegistration(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
	default:
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	rt := s.Recv()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Pkg() != nil && tn.Pkg().Path() == obsPath && tn.Name() == "Registry"
}
