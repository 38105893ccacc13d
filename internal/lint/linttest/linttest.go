// Package linttest runs lbsvet analyzers against testdata fixture
// packages, in the style of golang.org/x/tools/go/analysis/analysistest:
// fixture files carry `// want "regexp"` comments on the lines where the
// analyzer must report, and the runner fails the test on any missing or
// unexpected diagnostic. Fixtures are real, type-checked Go packages that
// may import the module's own packages and the standard library, so
// positive cases exercise the same types the production passes see.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/directive"
	"repro/internal/lint/loader"
)

var (
	progOnce sync.Once
	progVal  *loader.Program
	progErr  error
	caseSeq  int
	mu       sync.Mutex
)

// moduleRoot walks up from this source file to the module root.
func moduleRoot() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", "..", ".."))
}

// program loads (once per test binary) and returns the whole module.
func program(t *testing.T) *loader.Program {
	t.Helper()
	progOnce.Do(func() {
		progVal, progErr = loader.Load(moduleRoot(), "./...")
	})
	if progErr != nil {
		t.Fatalf("linttest: loading module: %v", progErr)
	}
	return progVal
}

// wantRe extracts the quoted regexps of a `// want "a" "b"` comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)`)

// expectation is one `// want` pattern.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture package rooted at dir (relative to the calling
// test's directory, conventionally "testdata/src/<case>"), runs the
// analyzer over it with the whole module as surrounding program, and
// checks the diagnostics against the fixture's `// want` expectations.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()

	prog := program(t)

	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(abs, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no fixture files in %s", abs)
	}

	caseSeq++
	path := fmt.Sprintf("lbsvet.fixture/case%d", caseSeq)
	pkg, err := prog.AddPackage(path, abs, files)
	if err != nil {
		t.Fatalf("linttest: fixture %s: %v", dir, err)
	}
	defer prog.DropPackage(path)

	// Interprocedural passes memoize whole-program state; a new fixture
	// package invalidates it.
	prog.Cache = make(map[interface{}]interface{})

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer: a,
		Fset:     prog.Fset,
		Pkg:      pkg.Types,
		Prog:     prog,
		Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("linttest: %s: %v", a.Name, err)
	}

	expectations := collect(t, prog.Fset, pkg)
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		found := false
		for _, e := range expectations {
			if e.file == pos.Filename && e.line == pos.Line && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, e := range expectations {
		if !e.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.raw)
		}
	}
}

// collect parses the fixture's // want comments. A trailing want applies
// to its own line, and so does a want riding a //lint: directive comment
// (doc-comment directives receive diagnostics at the comment's own
// position, which is never a code line); a plain want on a line of its
// own applies to the nearest code line above it.
func collect(t *testing.T, fset *token.FileSet, pkg *loader.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		codeLines := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.Ident, *ast.BasicLit:
				codeLines[fset.Position(n.Pos()).Line] = true
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				_, isDirective := directive.Parse(c.Text)
				if !isDirective && !codeLines[pos.Line] {
					for l := pos.Line - 1; l > 0; l-- {
						if codeLines[l] {
							pos.Line = l
							break
						}
					}
				}
				for _, raw := range splitQuoted(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
					}
					out = append(out, &expectation{
						file: pos.Filename, line: pos.Line, re: re, raw: raw,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// splitQuoted pulls the double-quoted strings out of a want comment tail.
func splitQuoted(s string) []string {
	var out []string
	for {
		start := strings.IndexByte(s, '"')
		if start < 0 {
			return out
		}
		s = s[start+1:]
		end := strings.IndexByte(s, '"')
		if end < 0 {
			return out
		}
		out = append(out, s[:end])
		s = s[end+1:]
	}
}
