package sim

import (
	"runtime"
	"sync"
)

// ParallelFor runs fn(0..n-1) across min(GOMAXPROCS, n) workers and
// blocks until every call returns. It is the one fan-out primitive,
// behind sparcs.System.Sweep and workload.RunGridColumns; fn must be
// safe to call concurrently for distinct indices.
func ParallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0) //sparcs:ignore determinism worker count only partitions the index space; fn(i) writes per-index results, so the fan-in is identical for any worker count
	if workers > n {
		workers = n
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
