// Command lbsvet runs the repo's static-analysis suite: the passes that
// prove the privacy trust boundary and the health of the //lint:
// directives declaring it (privleak), the lock hierarchy (lockorder) and
// the metric namespace (obsname). Call deadlines need no pass: every
// protocol client has one by construction (protocol.DefaultCallTimeout).
//
// Standalone (the CI gate — all passes, whole-program):
//
//	go run ./cmd/lbsvet ./...
//
// As a vet tool (per-package passes only; privleak needs the whole
// program and is skipped):
//
//	go vet -vettool=$(which lbsvet) ./...
//
// Exit status is 0 when the tree is clean, 1 on findings, 2 on usage or
// load errors.
package main

import (
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/lint/passes/lockorder"
	"repro/internal/lint/passes/obsname"
	"repro/internal/lint/passes/privleak"
)

var all = []*analysis.Analyzer{
	privleak.Analyzer,
	lockorder.Analyzer,
	obsname.Analyzer,
}

func main() {
	// The go command probes vet tools with -V=full and expects a single
	// version line it can use as a cache key.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("lbsvet version 1\n")
		return
	}
	// It also probes with -flags to learn which vet flags the tool
	// accepts, expecting a JSON listing; lbsvet exposes none.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Under `go vet -vettool`, the tool is invoked once per package with a
	// JSON config file as the sole argument.
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitMode(os.Args[1]))
	}
	os.Exit(standalone())
}

func standalone() int {
	passesFlag := flag.String("passes", "", "comma-separated subset of passes to run (default: all)")
	list := flag.Bool("list", false, "list the available passes and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lbsvet [-passes p1,p2] [package patterns]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-10s %s\n", a.Name, doc)
		}
		return 0
	}
	selected, err := selectPasses(*passesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsvet:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsvet:", err)
		return 2
	}
	prog, err := loader.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsvet:", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, a := range selected {
		for _, pkg := range prog.Packages {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Prog:      prog,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "lbsvet: %s: %v\n", a.Name, err)
				return 2
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", prog.Fset.Position(d.Pos), d.Message, d.Category)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectPasses resolves a -passes list; empty elements are skipped, and
// an empty list selects every pass.
func selectPasses(csv string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer)
	names := make([]string, len(all))
	for i, a := range all {
		byName[a.Name] = a
		names[i] = a.Name
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q (passes: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return all, nil
	}
	return out, nil
}

// vetConfig is the JSON config the go command hands to vet tools, one
// file per package (the x/tools unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitMode analyzes one package per the vet config. Only the per-package
// passes run here; privleak requires the whole program and is covered by
// the standalone driver.
func unitMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsvet:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lbsvet:", err)
		return 2
	}
	// The go command requires the facts output to exist even though the
	// lbsvet passes exchange no facts.
	if cfg.VetxOutput != "" {
		if err := writeEmptyVetx(cfg.VetxOutput); err != nil {
			fmt.Fprintln(os.Stderr, "lbsvet:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, fn := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "lbsvet:", err)
			return 2
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, cfg.Compiler, lookup)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "lbsvet:", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, a := range all {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       tpkg,
			TypesInfo: info,
			Prog:      nil, // modular mode
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "lbsvet: %s: %v\n", a.Name, err)
			return 2
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Category)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// writeEmptyVetx writes a facts file with zero facts in the gob framing
// the go command's cache expects to exist.
func writeEmptyVetx(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewEncoder(f).Encode([]struct{}{})
}
