// Package directive parses the //lint: comment directives that carry the
// repo's machine-checked invariants in the source itself:
//
//	//lint:source <why>            — declared on a function: every call's
//	                                 results are exact-location tainted.
//	//lint:sanitized <why>         — on a call line: the call is a declared
//	                                 privacy boundary; taint does not flow
//	                                 through it. The justification text is
//	                                 mandatory.
//	//lint:trusted-ingress <why>   — declared on a function: wire-encode
//	                                 sinks inside it are allowed (the
//	                                 user-side client encoding the user's
//	                                 own location to the trusted tier).
//	//lint:lock <class>@<rank>     — on a mutex struct field: classifies it
//	                                 for the lockorder pass; lower ranks
//	                                 must be acquired first.
//
// The verbs are deliberately in the //lint: namespace (shared with
// staticcheck's ignore directives, which use the distinct verbs ignore and
// file-ignore) so one grep surfaces every linting annotation in the tree.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

// Verbs lists, sorted, the directive verbs the lbsvet passes consume. The
// privleak pass reports any //lint: comment with a verb outside this
// list, so a typo ("//lint:santized") breaks the build instead of
// silently disabling the invariant it meant to declare.
var Verbs = []string{"lock", "sanitized", "source", "trusted-ingress"}

// Directive is one parsed //lint: comment.
type Directive struct {
	Verb string // "source", "sanitized", "trusted-ingress", "lock", ...
	Args string // everything after the verb, space-trimmed
	Pos  token.Pos
}

// Parse splits a single comment's text into a directive, reporting ok =
// false for ordinary comments.
func Parse(text string) (d Directive, ok bool) {
	text = strings.TrimPrefix(text, "//")
	if !strings.HasPrefix(text, "lint:") {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(text, "lint:")
	verb, args, _ := strings.Cut(rest, " ")
	verb = strings.TrimSpace(verb)
	if verb == "" || verb == "ignore" || verb == "file-ignore" {
		// ignore/file-ignore belong to staticcheck; not ours.
		return Directive{}, false
	}
	return Directive{Verb: verb, Args: strings.TrimSpace(args)}, true
}

// Map indexes a file's directives by the source line they apply to: a
// directive sharing a line with code applies to that line; a directive on
// a line of its own applies to the next line that has code.
type Map struct {
	byLine map[int][]Directive
}

// ForFile scans one parsed file.
func ForFile(fset *token.FileSet, file *ast.File) Map {
	// Lines that carry code tokens, so standalone directive comments can be
	// attached to the statement that follows them.
	codeLines := make(map[int]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Ident, *ast.BasicLit, *ast.ReturnStmt, *ast.BranchStmt:
			codeLines[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	maxLine := 0
	for l := range codeLines {
		if l > maxLine {
			maxLine = l
		}
	}
	m := Map{byLine: make(map[int][]Directive)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, ok := Parse(c.Text)
			if !ok {
				continue
			}
			d.Pos = c.Pos()
			line := fset.Position(c.Pos()).Line
			if !codeLines[line] {
				next := line + 1
				for next <= maxLine && !codeLines[next] {
					next++
				}
				line = next
			}
			m.byLine[line] = append(m.byLine[line], d)
		}
	}
	return m
}

// At returns the directives applying to the line containing pos.
func (m Map) At(fset *token.FileSet, pos token.Pos) []Directive {
	return m.byLine[fset.Position(pos).Line]
}

// Find returns the first directive with the given verb applying to pos's
// line.
func (m Map) Find(fset *token.FileSet, pos token.Pos, verb string) (Directive, bool) {
	for _, d := range m.At(fset, pos) {
		if d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}

// FromDoc returns the directive with the given verb in a declaration's
// doc comment.
func FromDoc(doc *ast.CommentGroup, verb string) (Directive, bool) {
	if doc == nil {
		return Directive{}, false
	}
	for _, c := range doc.List {
		if d, ok := Parse(c.Text); ok && d.Verb == verb {
			d.Pos = c.Pos()
			return d, true
		}
	}
	return Directive{}, false
}
