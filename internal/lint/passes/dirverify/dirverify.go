// Package dirverify implements the lbsvet pass that keeps the //lint:
// directives themselves honest. The directives carry machine-checked
// invariants, so a directive that silently stops parsing — a typo'd
// verb, or a params= list naming a parameter that was renamed away —
// is an invariant that silently stopped being checked.
//
// Two classes of staleness are reported:
//
//   - unknown verbs: any //lint: comment whose verb is not in
//     directive.Known (staticcheck's ignore/file-ignore are excluded by
//     the parser and never reach this pass);
//   - symbol references that no longer resolve: //lint:source params=a,b
//     naming parameters absent from the annotated function's signature.
//     (lock/hotpath argument shapes are checked by lockorder/hotalloc.)
package dirverify

import (
	"go/ast"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
)

// Analyzer is the dirverify pass.
var Analyzer = &analysis.Analyzer{
	Name: "dirverify",
	Doc: "report stale or typo'd //lint: directives\n\n" +
		"Unknown verbs and params= lists naming parameters that no longer\n" +
		"exist stop being checked silently; this pass makes them loud.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				d, ok := directive.Parse(c.Text)
				if !ok {
					continue
				}
				if !directive.Known[d.Verb] {
					known := make([]string, 0, len(directive.Known))
					for v := range directive.Known {
						known = append(known, v)
					}
					sort.Strings(known)
					pass.Reportf(c.Pos(), "unknown //lint: verb %q (known: %s); a typo here silently disables the invariant",
						d.Verb, strings.Join(known, ", "))
				}
			}
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			d, ok := directive.FromDoc(fd.Doc, "source")
			if !ok {
				continue
			}
			first, _, _ := strings.Cut(d.Args, " ")
			if !strings.HasPrefix(first, "params=") {
				continue
			}
			declared := make(map[string]bool)
			if fd.Recv != nil {
				for _, f := range fd.Recv.List {
					for _, id := range f.Names {
						declared[id.Name] = true
					}
				}
			}
			for _, f := range fd.Type.Params.List {
				for _, id := range f.Names {
					declared[id.Name] = true
				}
			}
			for _, name := range strings.Split(strings.TrimPrefix(first, "params="), ",") {
				name = strings.TrimSpace(name)
				if name == "" || declared[name] {
					continue
				}
				pass.Reportf(d.Pos, "//lint:source params= names %q, which is not a parameter of %s; the taint seed is stale",
					name, fd.Name.Name)
			}
		}
	}
	return nil, nil
}
