package ctxcall_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/passes/ctxcall"
)

func TestDeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module for fixture type-checking")
	}
	linttest.Run(t, "testdata/src/deadlines", ctxcall.Analyzer)
}

func TestStackPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module for fixture type-checking")
	}
	linttest.Run(t, "testdata/src/stack", ctxcall.Analyzer)
}
