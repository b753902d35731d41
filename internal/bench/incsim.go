package bench

import (
	"context"
	"fmt"
	"time"

	"gpm"
	"gpm/internal/difftest"
	"gpm/internal/generator"
)

// incSemantics enumerates the incrementally maintained edge-to-edge
// semantics the incsim experiment measures.
var incSemantics = []gpm.RelSemantics{gpm.RelSim, gpm.RelDual, gpm.RelStrong}

// IncSimSpeedup measures incremental maintenance of the sim/dual/strong
// relations against full recomputation, per update batch size. For each
// semantics one engine watcher absorbs a stream of update batches
// (inserts and deletes in equal parts) while a from-scratch query of the
// same semantics re-runs after every batch; the table reports the mean
// per-batch times and their ratio. The checksum column is the relation
// checksum after the final batch, asserted equal between the watcher and
// the recompute — the bench proves the same incremental ≡ recompute
// property the difftest harness pins, at benchmark scale.
func IncSimSpeedup(cfg Config) *Table {
	cfg = cfg.withDefaults()
	n := cfg.SynthNodes
	if n < 300 {
		n = 300
	}
	t := &Table{
		ID:      "incsim",
		Title:   fmt.Sprintf("Incremental vs recompute, dual/strong watchers on synthetic (|V|=%d)", n),
		Columns: []string{"semantics", "batch size", "inc (ms/batch)", "recompute (ms/batch)", "speedup", "relation checksum"},
	}
	ctx := context.Background()
	const rounds = 6
	for _, sem := range incSemantics {
		for _, batchSize := range []int{1, 8, 64} {
			// A fresh graph per (semantics, batch size) cell so every
			// cell replays the same deterministic update stream.
			g := generator.Graph(generator.GraphConfig{
				Nodes: n, Edges: 4 * n, Attrs: 8, Model: generator.PowerLaw, Seed: cfg.Seed,
			})
			p := generator.Pattern(generator.PatternConfig{
				Nodes: 4, Edges: 5, K: 1, IsoBias: true, Seed: cfg.Seed * 31,
			}, g)
			eng := gpm.NewEngine(g)
			var w *gpm.Watcher
			var err error
			switch sem {
			case gpm.RelSim:
				w, err = eng.WatchSim(p)
			case gpm.RelDual:
				w, err = eng.WatchDual(p)
			case gpm.RelStrong:
				w, err = eng.WatchStrong(p)
			}
			if err != nil {
				panic(err)
			}
			var incT, recompT time.Duration
			var incSum, recompSum uint64
			for round := 0; round < rounds; round++ {
				ups := generator.Updates(generator.UpdatesConfig{
					Insertions: (batchSize + 1) / 2,
					Deletions:  batchSize / 2,
					Seed:       cfg.Seed*1000 + int64(round),
				}, g)
				start := time.Now()
				if _, err := eng.Update(ups...); err != nil {
					panic(err)
				}
				incT += time.Since(start)

				start = time.Now()
				res, err := gpm.NewEngine(g).RelationQuery(ctx, gpm.RelationQuery{Semantics: sem, Pattern: p})
				if err != nil {
					panic(err)
				}
				recompT += time.Since(start)
				incSum, recompSum = difftest.Checksum(w.Relation()), difftest.Checksum(res.Relation)
				if incSum != recompSum {
					panic(fmt.Sprintf("bench: incsim %s diverged at batch size %d round %d: %x vs %x",
						sem, batchSize, round, incSum, recompSum))
				}
			}
			w.Close()
			t.AddRow(sem.String(), fmt.Sprintf("%d", batchSize), msAvg(incT, rounds), msAvg(recompT, rounds),
				f2(recompT.Seconds()/incT.Seconds()), fmt.Sprintf("%016x", incSum))
			cfg.logf("incsim: %s at batch size %d done", sem, batchSize)
		}
	}
	t.Note("equal checksums between watcher and recompute are asserted every round; the column shows the final relation's")
	t.Note("speedup = recompute / incremental per batch; small batches amortise best — the affected area stays local")
	t.Note("the strong watcher pays one O(|V|+|E|) freeze per batch, then re-evaluates only balls near touched nodes")
	return t
}
