package par

import (
	"sync/atomic"
	"testing"
)

// Every index runs exactly once, and a worker id is in range and never
// runs two iterations at once.
func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16, 200} {
		hits := make([]int32, 100)
		busy := make([]atomic.Int32, max(1, min(workers, len(hits))))
		For(len(hits), workers, func(w, i int) {
			if w < 0 || w >= len(busy) {
				t.Errorf("workers=%d: worker id %d out of range", workers, w)
				return
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("workers=%d: worker %d ran two iterations at once", workers, w)
			}
			hits[i]++
			busy[w].Add(-1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}
