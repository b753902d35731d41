package core

import (
	"sync"
	"sync/atomic"

	"gpm/internal/cancel"
	"gpm/internal/pattern"
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
// private walk prober for ranged edges, a private sweeper, a private
// cancellation poller and a local probe counter, so the hot loops run
// without any locking. A sequential run is the same code on one prober.

// minShardWork is the smallest number of per-task loop iterations worth a
// task switch; below it, sharding overhead beats the parallel gain.
const minShardWork = 256

// prober is the per-goroutine witness-finding state of one query.
type prober struct {
	st      *state
	o       DistOracle
	walks   *walkProber // lazy; only for ranged edges (§6 extension)
	sw      *sweeper    // lazy; only with a caller-supplied snapshot
	poll    cancel.Poller
	queries int64 // oracle probes issued
}

// witness returns the witness length for pattern edge e from x to z: the
// ranged walk check when e carries a lower bound, the oracle's nonempty
// shortest path otherwise. preferBackward hints the walk prober's cache
// (target-major sweeps fix z).
func (p *prober) witness(x, z int, e pattern.Edge, preferBackward bool) int {
	if e.Ranged() {
		if p.walks == nil {
			p.walks = newWalkProber(p.st.frozen())
		}
		return p.walks.WalkWithin(x, z, e.MinBound, e.Bound, e.Color, preferBackward)
	}
	p.queries++
	return p.o.NonemptyDistWithin(x, z, e.Bound, e.Color)
}

// holds reports whether z witnesses constraint c for x: z lies within
// the edge's bound downstream of x, or upstream for a parent constraint.
// fixedWitness says the caller's loop keeps z and varies x.
func (p *prober) holds(c *constraint, x, z int, fixedWitness bool) bool {
	if c.parent {
		return p.witness(z, x, c.e, !fixedWitness) >= 0
	}
	return p.witness(x, z, c.e, fixedWitness) >= 0
}

// sweeper returns the prober's sweeper, taking scratch from the pool on
// first use.
func (p *prober) sweeper() *sweeper {
	if p.sw == nil {
		p.sw = newSweeper(p.st.f, &p.poll)
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
