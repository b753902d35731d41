package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"gpm"
	"gpm/internal/difftest"
	"gpm/internal/generator"
)

// TopoSpeedup measures the topology-preserving semantics (dual and
// strong simulation, Ma et al. VLDB 2012) against worker count on a
// synthetic workload of all-bounds-one patterns. Strong simulation
// fans its per-center ball evaluations across the engine's workers;
// dual simulation shards its fixpoint initialisation. The checksum
// column proves every worker count computes bit-identical relations;
// the 1-worker rows are the sequential baselines the speedups are
// relative to.
func TopoSpeedup(cfg Config) *Table {
	cfg = cfg.withDefaults()
	n := cfg.SynthNodes
	if n < 300 {
		n = 300
	}
	// A loose attribute alphabet keeps the dual image large, so strong
	// simulation sweeps many candidate centers — the ball fan-out the
	// worker pool is for. IsoBias backs pattern edges with data edges,
	// so the all-bounds-one patterns actually match.
	g := generator.Graph(generator.GraphConfig{
		Nodes: n, Edges: 4 * n, Attrs: 8, Model: generator.PowerLaw, Seed: cfg.Seed,
	})
	var ps []*gpm.Pattern
	for i := 0; i < cfg.Patterns; i++ {
		ps = append(ps, generator.Pattern(generator.PatternConfig{
			Nodes: 4, Edges: 5, K: 1, IsoBias: true, Seed: cfg.Seed*31 + int64(i),
		}, g))
	}

	t := &Table{
		ID: "topo",
		Title: fmt.Sprintf("Dual/strong simulation speedup on synthetic (|V|=%d, |E|=%d, %d patterns)",
			g.N(), g.M(), len(ps)),
		Columns: []string{"semantics", "workers", "elapsed (ms)", "speedup", "relation checksum"},
	}
	ctx := context.Background()
	for _, sem := range []gpm.RelSemantics{gpm.RelDual, gpm.RelStrong} {
		var baseline time.Duration
		var wantSum uint64
		for _, w := range []int{1, 2, 4, 8} {
			eng := gpm.NewEngine(g, gpm.WithWorkers(w))
			h := fnv.New64a()
			var buf [8]byte
			start := time.Now()
			for _, p := range ps {
				res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: sem, Pattern: p})
				if err != nil {
					panic(err)
				}
				// difftest.Checksum is the same encoding the lattice tests
				// pin, so the table and the harness prove one property.
				sum := difftest.Checksum(res.Relation)
				buf[0], buf[1], buf[2], buf[3] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
				buf[4], buf[5], buf[6], buf[7] = byte(sum>>32), byte(sum>>40), byte(sum>>48), byte(sum>>56)
				h.Write(buf[:])
			}
			elapsed := time.Since(start)
			sum := h.Sum64()
			if w == 1 {
				baseline = elapsed
				wantSum = sum
			} else if sum != wantSum {
				panic(fmt.Sprintf("bench: topo checksum diverged for %s at %d workers: %x vs %x", sem, w, sum, wantSum))
			}
			t.AddRow(sem.String(), fmt.Sprintf("%d", w), ms(elapsed),
				f2(baseline.Seconds()/elapsed.Seconds()), fmt.Sprintf("%016x", sum))
			cfg.logf("topo: %s at %d workers done", sem, w)
		}
	}
	t.Note("identical checksums across a semantics' rows: ball-sharded evaluation is result-equivalent at every worker count")
	t.Note("strong simulation dominates: it runs one ball-local dual fixpoint per candidate center")
	t.Note("speedup is relative to each semantics' 1-worker row; it saturates at the machine's core count")
	return t
}
