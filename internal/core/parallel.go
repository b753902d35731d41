package core

import (
	"sync"
	"sync/atomic"

	"gpm/internal/cancel"
)

// This file holds the worker pool that shards the two initialisation
// phases of the bounded-simulation fixpoint: candidate filtering
// (O(|Vp||V|) predicate tests at worst) and counter seeding (the
// O(|Ep||V|²) distance probes that dominate Theorem 3.1's bound, or the
// witness sweeps that replace them). The refinement cascade that follows
// stays sequential — removals are a tiny fraction of the work, and the
// greatest fixpoint is unique regardless of removal order, so parallel and
// sequential runs produce bit-identical results.
//
// Each worker owns a prober: a clone of the distance oracle (shared
// immutable indexes, private frontier caches — see WorkerCloner), a
// private sweeper, a private cancellation poller and a local probe
// counter, so the hot loops run without any locking. A sequential run is
// the same code on one prober.

// minShardWork is the smallest number of per-task loop iterations worth a
// task switch; below it, sharding overhead beats the parallel gain.
const minShardWork = 256

// prober is the per-goroutine witness-finding state of one query.
type prober struct {
	st      *state
	o       DistOracle
	sw      *sweeper // lazy; only for swept constraints
	poll    cancel.Poller
	queries int64 // oracle probes issued
}

// holds reports, with one oracle probe, whether z witnesses plain
// constraint c for x: z lies within the edge's bound downstream of x, or
// upstream for a parent constraint.
func (p *prober) holds(c *constraint, x, z int) bool {
	p.queries++
	if c.parent {
		x, z = z, x
	}
	return p.o.NonemptyDistWithin(x, z, c.e.Bound) >= 0
}

// sweeper returns the prober's sweeper, taking scratch from the pool on
// first use. The first use may freeze the graph; a parallel run has
// frozen it before its workers start.
func (p *prober) sweeper() *sweeper {
	if p.sw == nil {
		p.sw = newSweeper(p.st.frozen(), &p.poll)
	}
	return p.sw
}

// abortFlag latches the first error of a worker pool.
type abortFlag struct {
	stop atomic.Bool
	once sync.Once
	err  error
}

func (a *abortFlag) set(err error) {
	a.once.Do(func() {
		a.err = err
		a.stop.Store(true)
	})
}

// runShards feeds task indexes 0..tasks-1 to a pool of probes. run must
// only touch state disjoint per task (or read-only shared state). The
// first error stops the pool; remaining tasks are skipped.
func runShards(probes []*prober, tasks int, run func(p *prober, task int) error) error {
	if len(probes) == 1 {
		for t := 0; t < tasks; t++ {
			if err := run(probes[0], t); err != nil {
				return err
			}
		}
		return nil
	}
	ch := make(chan int)
	var ab abortFlag
	var wg sync.WaitGroup
	for _, p := range probes {
		wg.Add(1)
		go func(p *prober) {
			defer wg.Done()
			for t := range ch {
				if ab.stop.Load() {
					continue
				}
				if err := run(p, t); err != nil {
					ab.set(err)
				}
			}
		}(p)
	}
	for t := 0; t < tasks; t++ {
		if ab.stop.Load() {
			break
		}
		ch <- t
	}
	close(ch)
	wg.Wait()
	return ab.err
}

// shardSpans splits [0, n) into spans of roughly equal size targeting a
// few tasks per worker, but never below minWork iterations each (workUnit
// is the inner-loop cost of one index).
func shardSpans(n, workers, workUnit int) [][2]int {
	if n == 0 {
		return nil
	}
	if workUnit < 1 {
		workUnit = 1
	}
	size := (n + 4*workers - 1) / (4 * workers)
	if size*workUnit < minShardWork {
		size = (minShardWork + workUnit - 1) / workUnit
	}
	var spans [][2]int
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		spans = append(spans, [2]int{lo, hi})
	}
	return spans
}
