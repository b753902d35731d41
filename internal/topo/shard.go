package topo

import (
	"sync"
	"sync/atomic"
)

// RunShards feeds task indexes 0..tasks-1 to a pool of workers goroutines
// and hands each invocation its worker id, so tasks can use per-worker
// scratch without locking. run must only write state disjoint per task
// (or per worker). The first error stops the pool; remaining tasks are
// skipped and the error returned.
func RunShards(workers, tasks int, run func(worker, task int) error) error {
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			if err := run(0, t); err != nil {
				return err
			}
		}
		return nil
	}
	ch := make(chan int)
	var stop atomic.Bool
	var once sync.Once
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for t := range ch {
				if stop.Load() {
					continue
				}
				if err := run(worker, t); err != nil {
					once.Do(func() {
						firstErr = err
						stop.Store(true)
					})
				}
			}
		}(w)
	}
	for t := 0; t < tasks; t++ {
		if stop.Load() {
			break
		}
		ch <- t
	}
	close(ch)
	wg.Wait()
	return firstErr
}
