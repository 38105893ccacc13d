package repro

// Smoke tests that every example actually runs to completion — the
// examples are the documentation's executable half, so they are held to
// the same green bar as the library. Skipped under -short (each example
// compiles and runs a small simulation).

import (
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are skipped in -short mode")
	}
	examples := []struct {
		name string
		want string // a fragment the example must print
	}{
		{"quickstart", "nearest gas station"},
		{"storefinder", "privacy level sweep"},
		{"trafficcount", "district occupancy"},
		{"ecoupon", "min–max pruning eliminated"},
		{"networked", "never received a single exact"},
		{"fleetops", "depot live count"},
	}
	for _, ex := range examples {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+ex.name)
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(3 * time.Minute):
				cmd.Process.Kill()
				t.Fatalf("example %s timed out", ex.name)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", ex.name, err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Fatalf("example %s output missing %q:\n%s", ex.name, ex.want, out)
			}
		})
	}
}
