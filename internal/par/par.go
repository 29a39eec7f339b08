// Package par provides small parallel-execution utilities: the experiment
// harness fans simulation scenarios out across CPU cores with them, and
// rats.ScheduleAll runs its batches on ForEach's worker pool.
//
// The helpers deliberately avoid any external dependency: a bounded worker
// pool over a work channel and a ForEach convenience wrapper with
// deterministic result ordering (results land at their input index, so
// parallel runs produce byte-identical reports).
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns the default worker count: GOMAXPROCS, at least 1.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) using at most workers goroutines.
// If workers <= 0, DefaultWorkers() is used. ForEach returns once all calls
// have completed. fn must be safe for concurrent invocation on distinct
// indices.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// Map applies fn to every index in [0, n) in parallel and collects the
// results in input order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
