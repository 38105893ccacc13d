package privleak_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/passes/privleak"
)

func TestFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program analysis")
	}
	linttest.Run(t, "testdata/src/flow", privleak.Analyzer)
}

func TestClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program analysis")
	}
	linttest.Run(t, "testdata/src/clean", privleak.Analyzer)
}

func TestDirectives(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program analysis")
	}
	linttest.Run(t, "testdata/src/directives", privleak.Analyzer)
}
