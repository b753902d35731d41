package bench

import (
	"context"
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/difftest"
	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pll"
	"gpm/internal/simulation"
)

// Million (id "million") is the ROADMAP's million-node north star: a
// 1M-node / ~10M-edge Barabási–Albert graph (scaled by -scale, floor
// 2K nodes) whose distance matrix would need ~4 TB, matched end to end
// on the PLL labelling instead. Every Match relation is checksummed
// against a BFS-oracle reference — the gate that PLL stays exact at
// scale, not merely fast — and classic simulation runs on the same graph
// for the Simulate half of the workload.
func Million(cfg Config) *Table {
	cfg = cfg.withDefaults()
	n := int(1_000_000 * cfg.Scale)
	if n < 2_000 {
		n = 2_000
	}
	const mOut = 10
	var g *graph.Graph
	genT := timed(func() {
		g = generator.Graph(generator.GraphConfig{
			Nodes: n, Attrs: n / 10, Model: generator.BarabasiAlbert, MOut: mOut, Seed: cfg.Seed,
		})
	})
	cfg.logf("million: graph generated (%d nodes, %d edges)", g.N(), g.M())
	f := g.Freeze()
	opts := pll.AutoOptions(f)
	opts.Workers = cfg.Workers
	var idx *pll.Index
	var buildT time.Duration
	heap := heapDelta(func() {
		buildT = timed(func() {
			var err error
			idx, err = pll.Build(context.Background(), f, opts)
			if err != nil {
				panic(err) // n is far below pll.MaxNodes
			}
		})
	})
	cfg.logf("million: pll built in %v", buildT)
	po := core.NewPLLOracleFrozen(f, idx)

	t := &Table{
		ID: "million",
		Title: fmt.Sprintf("Million-node run: BA graph |V|=%d |E|=%d on the PLL oracle (scale %.2f)",
			g.N(), g.M(), cfg.Scale),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("generate (ms)", ms(genT))
	t.AddRow("pll build (ms)", ms(buildT))
	t.AddRow("pll build workers", fmt.Sprintf("%d", opts.Workers))
	t.AddRow("pll bit-parallel roots", fmt.Sprintf("%d", idx.BitParallelRoots()))
	t.AddRow("pll arena mode", fmt.Sprintf("%v", opts.Arena))
	t.AddRow("pll label entries", fmt.Sprintf("%d", idx.LabelEntries()))
	t.AddRow("pll label (MB)", mb(idx.MemoryBytes()))
	t.AddRow("pll entries/node", f2(float64(idx.LabelEntries())/float64(g.N())))
	t.AddRow("pll build heap delta (MB)", mb(heap))
	t.AddRow("matrix equivalent (MB, est)", mb(matrixBytesFor(g.N())))

	ps := patternBatch(cfg, g, cfg.Patterns, 4, 4, 3)
	var pllT, bfsT, simT time.Duration
	equal := true
	var okCount int
	for i, p := range ps {
		var res *core.Result
		var err error
		pllT += timed(func() { res, err = core.MatchWithOracle(p, g, po) })
		if err != nil {
			t.Note("pattern %d: %v", i, err)
			continue
		}
		bo := core.NewBFSOracleFrozen(f)
		var ref *core.Result
		bfsT += timed(func() { ref, err = core.MatchWithOracle(p, g, bo) })
		if err != nil {
			t.Note("pattern %d (bfs): %v", i, err)
			continue
		}
		if difftest.Checksum(res.Relation()) != difftest.Checksum(ref.Relation()) {
			equal = false
			t.Note("pattern %d: PLL relation diverges from the BFS reference", i)
		}
		if res.OK() {
			okCount++
		}
		simT += timed(func() { _, _, _ = simulation.RunFrozen(context.Background(), p, g.Freeze()) })
		cfg.logf("million: pattern %d done", i)
	}
	t.AddRow("patterns P(4,4,3)", fmt.Sprintf("%d (%d matched)", len(ps), okCount))
	t.AddRow("Match avg (ms, PLL)", msAvg(pllT, len(ps)))
	t.AddRow("Match avg (ms, BFS reference)", msAvg(bfsT, len(ps)))
	t.AddRow("Simulate avg (ms)", msAvg(simT, len(ps)))
	t.AddRow("PLL == BFS checksums", fmt.Sprintf("%v", equal))
	t.Note("the BFS column is the exactness reference, not a contender: it keeps no index at all")
	return t
}
