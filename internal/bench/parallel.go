package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"gpm"
)

// relChecksum folds every (pattern node, data node) pair of a batch's
// relations into one FNV-1a hash, so two rows of the speedup table can
// prove they computed bit-identical matches.
func relChecksum(results []*gpm.MatchResult) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, res := range results {
		for u := 0; u < res.Pattern().N(); u++ {
			for _, x := range res.Mat(u) {
				buf[0] = byte(u)
				buf[1] = byte(x)
				buf[2] = byte(x >> 8)
				buf[3] = byte(x >> 16)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// ParallelSpeedup measures Match throughput of the parallel matching
// core against worker count on the engine-throughput workload (the
// YouTube stand-in served by one engine per row): `MatchBatch` fans the
// pattern batch across WithWorkers(w) goroutines over the shared cached
// oracle. The relation checksum column proves every worker count
// computes bit-identical results; WithWorkers(1) is the sequential
// baseline the speedups are relative to.
func ParallelSpeedup(cfg Config) *Table {
	cfg = cfg.withDefaults()
	g := youtube(cfg)
	ps := patternBatch(cfg, g, cfg.Patterns*8, 4, 4, 3)

	t := &Table{
		ID: "parallel",
		Title: fmt.Sprintf("Parallel Match speedup on YouTube stand-in (|V|=%d, |E|=%d, %d patterns/batch)",
			g.N(), g.M(), len(ps)),
		Columns: []string{"workers", "queries", "elapsed (ms)", "queries/s", "speedup", "relation checksum"},
	}
	const rounds = 2
	var baseline time.Duration
	var wantSum uint64
	for _, w := range []int{1, 2, 4, 8} {
		eng := gpm.NewEngine(g, gpm.WithWorkers(w), gpm.WithAutoOracle())
		// Warm the engine before timing: auto builds the matrix up to
		// 4096 nodes, else nothing (BFS).
		if _, err := eng.Match(context.Background(), ps[0]); err != nil {
			panic(err)
		}
		var sum uint64
		start := time.Now()
		for r := 0; r < rounds; r++ {
			results, err := eng.MatchBatch(context.Background(), ps)
			if err != nil {
				panic(err)
			}
			sum = relChecksum(results)
		}
		elapsed := time.Since(start)
		if w == 1 {
			baseline = elapsed
			wantSum = sum
		} else if sum != wantSum {
			panic(fmt.Sprintf("bench: parallel-speedup checksum diverged at %d workers: %x vs %x", w, sum, wantSum))
		}
		queries := rounds * len(ps)
		qps := float64(queries) / elapsed.Seconds()
		t.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%d", queries), ms(elapsed),
			f2(qps), f2(baseline.Seconds()/elapsed.Seconds()), fmt.Sprintf("%016x", sum))
		cfg.logf("parallel: %d workers done", w)
	}
	t.Note("identical checksums across rows: the parallel fixpoint is result-equivalent to WithWorkers(1)")
	t.Note("speedup is relative to the sequential WithWorkers(1) row; it saturates at the machine's core count")
	return t
}
