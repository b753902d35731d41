package bench

import (
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/matrix"
)

// Ablation quantifies the implementation choices DESIGN.md calls out:
// the counter/worklist fixpoint vs the naive rescan fixpoint, and
// parallel vs sequential matrix construction.
func Ablation(cfg Config) *Table {
	cfg = cfg.withDefaults()
	n := cfg.SynthNodes / 2
	if n < 400 {
		n = 400
	}
	// This ablation measures matrix construction itself, so the PLL
	// substitution doesn't apply; instead cap the node count so the three
	// matrices built here (shared, sequential, parallel) fit the budget.
	requested := n
	for 3*matrixBytesFor(n) > matrixBudgetBytes {
		n = n * 3 / 4
	}
	// Selective attributes plus extra pattern edges force long removal
	// cascades — the regime that separates the naive fixpoint from the
	// counter/worklist refinement.
	g := generator.Graph(generator.GraphConfig{
		Nodes: n, Edges: 3 * n, Attrs: n / 20, Model: generator.ER, Seed: cfg.Seed,
	})
	oracle := core.BuildMatrixOracle(g)
	ps := patternBatch(cfg, g, cfg.Patterns, 6, 10, 2)

	var counterT, naiveT time.Duration
	for _, p := range ps {
		counterT += timed(func() { core.MatchWithOracle(p, g, oracle) })
	}
	for _, p := range ps {
		naiveT += timed(func() { core.MatchNaive(p, g, oracle) })
	}
	var seqT, parT time.Duration
	seqT = timed(func() { matrix.NewSequential(g) })
	parT = timed(func() { matrix.New(g) })

	t := &Table{
		ID:      "ablation",
		Title:   fmt.Sprintf("Ablation on synthetic |V|=%d |E|=%d", g.N(), g.M()),
		Columns: []string{"comparison", "baseline (ms)", "optimised (ms)"},
	}
	t.AddRow("naive fixpoint vs counter/worklist Match", msAvg(naiveT, len(ps)), msAvg(counterT, len(ps)))
	t.AddRow("sequential vs parallel matrix build", ms(seqT), ms(parT))
	if n != requested {
		t.Note("node count capped from %d to keep three matrices inside the %d MB budget", requested, matrixBudgetBytes>>20)
	}
	return t
}

// All runs every experiment in paper order.
func All(cfg Config) []*Table {
	b, c := Fig6bc(cfg)
	return []*Table{
		Datasets(cfg),
		Fig6a(cfg),
		b, c,
		Fig6d(cfg),
		Fig6e(cfg),
		Fig6fgh(cfg, 1),
		Fig6fgh(cfg, 2),
		Fig6fgh(cfg, 3),
		Fig6i(cfg),
		Fig6j(cfg),
		Fig6k(cfg),
		Fig9(cfg),
		GrStats(cfg),
		AffStats(cfg),
		TwoHopStats(cfg),
		OracleStats(cfg),
		OracleParallel(cfg),
		Ablation(cfg),
		ParallelSpeedup(cfg),
		TopoSpeedup(cfg),
		PlanSpeedup(cfg),
		IncSimSpeedup(cfg),
	}
}

// ByID returns the experiments matching one id (see the per-experiment
// index in DESIGN.md), or an error listing the valid ids.
func ByID(id string, cfg Config) ([]*Table, error) {
	switch id {
	case "all":
		return All(cfg), nil
	case "datasets":
		return []*Table{Datasets(cfg)}, nil
	case "6a":
		return []*Table{Fig6a(cfg)}, nil
	case "6b", "6c":
		b, c := Fig6bc(cfg)
		if id == "6b" {
			return []*Table{b}, nil
		}
		return []*Table{c}, nil
	case "6bc":
		b, c := Fig6bc(cfg)
		return []*Table{b, c}, nil
	case "6d":
		return []*Table{Fig6d(cfg)}, nil
	case "6e":
		return []*Table{Fig6e(cfg)}, nil
	case "6f":
		return []*Table{Fig6fgh(cfg, 1)}, nil
	case "6g":
		return []*Table{Fig6fgh(cfg, 2)}, nil
	case "6h":
		return []*Table{Fig6fgh(cfg, 3)}, nil
	case "6i":
		return []*Table{Fig6i(cfg)}, nil
	case "6j":
		return []*Table{Fig6j(cfg)}, nil
	case "6k":
		return []*Table{Fig6k(cfg)}, nil
	case "fig9":
		return []*Table{Fig9(cfg)}, nil
	case "gr":
		return []*Table{GrStats(cfg)}, nil
	case "aff":
		return []*Table{AffStats(cfg)}, nil
	case "2hop":
		return []*Table{TwoHopStats(cfg)}, nil
	case "oracle":
		return []*Table{OracleStats(cfg), OracleParallel(cfg)}, nil
	case "oracle-parallel":
		return []*Table{OracleParallel(cfg)}, nil
	case "million":
		// Deliberately not part of "all": it generates its own large graph
		// and is gated by -scale (1.0 = the full 1M-node/10M-edge run).
		return []*Table{Million(cfg)}, nil
	case "ablation":
		return []*Table{Ablation(cfg)}, nil
	case "parallel", "parallel-speedup":
		return []*Table{ParallelSpeedup(cfg)}, nil
	case "topo":
		return []*Table{TopoSpeedup(cfg)}, nil
	case "plan":
		return []*Table{PlanSpeedup(cfg)}, nil
	case "incsim":
		return []*Table{IncSimSpeedup(cfg)}, nil
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (want all, datasets, 6a, 6b, 6c, 6d, 6e, 6f, 6g, 6h, 6i, 6j, 6k, fig9, gr, aff, 2hop, oracle, oracle-parallel, million, ablation, parallel, topo, plan, incsim)", id)
	}
}
