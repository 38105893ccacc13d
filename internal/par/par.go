// Package par is the one worker pool the batch engines share.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(w, i) for every i in [0, n) on up to workers goroutines.
// Iterations are handed out by an atomic cursor, so callers only need
// fn(·, i) and fn(·, j) to touch disjoint state. The worker id w is in
// [0, min(workers, n)) and lets a caller hand each worker exclusive
// scratch state: fn(w, i) and fn(w, j) for the same w never run
// concurrently. workers ≤ 1 degenerates to a plain loop on the calling
// goroutine.
func For(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
