// Command lbsvet runs the repo's static-analysis suite: the passes that
// prove the privacy trust boundary and the health of the //lint:
// directives declaring it (privleak) and the lock hierarchy (lockorder).
// Two properties need no pass, because they hold by construction: every
// protocol client has a call deadline (protocol.DefaultCallTimeout), and
// every metric and span name is checked where it is made (obs.Registry
// and trace refuse a name that is not snake_case, and the registry a
// re-registration that disagrees with the first).
//
// It loads the whole program once and runs every pass over it (the CI
// gate, through make lint):
//
//	go run ./cmd/lbsvet ./...
//
// Exit status is 0 when the tree is clean, 1 on findings, 2 on usage or
// load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/lint/passes/lockorder"
	"repro/internal/lint/passes/privleak"
)

var all = []*analysis.Analyzer{
	privleak.Analyzer,
	lockorder.Analyzer,
}

func main() { os.Exit(run()) }

func run() int {
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
				Analyzer: a,
				Fset:     prog.Fset,
				Pkg:      pkg.Types,
				Prog:     prog,
				Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
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
