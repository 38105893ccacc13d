// Package analysis defines the analyzer plumbing of lbsvet, the repo's
// static-analysis suite. It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so the
// passes read like standard vet passes and can migrate to the upstream
// framework wholesale if the module ever takes on the dependency. The
// build environment is hermetic (no module proxy), so the subset the
// lbsvet passes need is implemented here on the standard library alone.
//
// Differences from the upstream framework, all deliberate:
//
//   - No Facts. The drivers in this repo load the whole module in one
//     process, so cross-package state travels through Pass.Prog (the loaded
//     program) and Prog.Cache instead of serialized facts.
//   - No Requires/ResultOf dependency graph; the passes are
//     independent.
//   - Diagnostics carry only position, category and message.
package analysis

import (
	"go/token"
	"go/types"

	"repro/internal/lint/loader"
)

// Analyzer describes one analysis pass: its name (the category prefix of
// its diagnostics), documentation, and entry point.
type Analyzer struct {
	// Name identifies the pass in diagnostics and -passes selections. It
	// must be a valid identifier.
	Name string
	// Doc is the help text shown by lbsvet -help.
	Doc string
	// Run executes the pass against one package. Any value it returns is
	// discarded; reporting happens through Pass.Report.
	Run func(*Pass) (interface{}, error)
}

// Pass carries one package and the whole program to an Analyzer, plus the
// reporting callback. Exactly one Pass is constructed per (analyzer,
// package) pair.
type Pass struct {
	Analyzer *Analyzer

	Fset *token.FileSet
	Pkg  *types.Package

	// Prog is the whole loaded program. Both drivers, lbsvet and the
	// fixture runner, always set it, so interprocedural passes may
	// analyze it once and report per package.
	Prog *loader.Program

	// Report emits one diagnostic.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}
