// Benchmarks regenerating the core operation behind every table and
// figure of the paper's evaluation. Dataset scale is kept small so the
// whole suite runs in seconds; cmd/gpmbench produces the full tables
// (and -scale 1 the paper-sized runs). Mapping to paper artefacts:
//
//	BenchmarkTableDatasets  – §5 dataset table (stand-in construction)
//	BenchmarkFig6a*         – Exp-1 effectiveness (Match vs SubIso)
//	BenchmarkFig6b*         – Fig 6(b) efficiency (Match vs VF2)
//	BenchmarkFig6c*         – Fig 6(c) match counting
//	BenchmarkFig6d*         – Fig 6(d) extra pattern edges
//	BenchmarkFig6e*         – Fig 6(e) Match/2-hop/BFS on real-life data
//	BenchmarkFig6fgh*       – Figs 6(f)-(h) scalability in |E|
//	BenchmarkFig6i*         – Fig 6(i) IncMatch vs Match, mixed batches
//	BenchmarkFig6j*         – Fig 6(j) deletions
//	BenchmarkFig6k*         – Fig 6(k) insertions
//	BenchmarkFig9*          – appendix Fig 9 bound sweep
//	BenchmarkGr*            – appendix |Gr| result-graph statistics
//	BenchmarkAblation*      – DESIGN.md ablations (naive fixpoint, matrix build)
//	BenchmarkColoredMatch*  – coloured /match through the engine
package gpm_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gpm"
	"gpm/internal/core"
	"gpm/internal/difftest"
	"gpm/internal/incremental"
	"gpm/internal/simulation"
	"gpm/internal/subiso"
)

// Shared fixtures, built once.
var (
	fixOnce    sync.Once
	ytGraph    *gpm.Graph      // scaled YouTube stand-in
	ytOracle   core.DistOracle // matrix oracle over ytGraph
	ytPattern  *gpm.Pattern    // P(4,4,3) walk pattern
	ytPatterns map[int]*gpm.Pattern
	synGraph   *gpm.Graph
	synOracle  core.DistOracle
)

func setup() {
	fixOnce.Do(func() {
		var err error
		ytGraph, err = gpm.Dataset("youtube", 20100913, 0.05)
		if err != nil {
			panic(err)
		}
		ytOracle = core.BuildMatrixOracle(ytGraph)
		ytPatterns = map[int]*gpm.Pattern{}
		for size := 3; size <= 8; size++ {
			ytPatterns[size] = gpm.GeneratePattern(gpm.PatternGenConfig{
				Nodes: size, Edges: size, K: 3, C: 2, PredAttrs: 2, Seed: int64(100 + size),
			}, ytGraph)
		}
		ytPattern = ytPatterns[4]
		synGraph = gpm.GenerateGraph(gpm.GraphGenConfig{
			Nodes: 1000, Edges: 2000, Attrs: 100, Model: gpm.ModelER, Seed: 7,
		})
		synOracle = core.BuildMatrixOracle(synGraph)
	})
}

func BenchmarkTableDatasets(b *testing.B) {
	for _, name := range []string{"matter", "pblog", "youtube"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gpm.Dataset(name, 1, 0.02); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6aMatch(b *testing.B) {
	setup()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.MatchWithOracle(ytPattern, ytGraph, ytOracle); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aSubIso(b *testing.B) {
	setup()
	b.ResetTimer()
	opts := gpm.IsoOptions{MaxEmbeddings: 1000, MaxSteps: 2_000_000}
	for i := 0; i < b.N; i++ {
		subiso.Ullmann(ytPattern, ytGraph, opts)
	}
}

func BenchmarkFig6bMatchProcess(b *testing.B) {
	setup()
	b.ResetTimer()
	for size := 3; size <= 8; size++ {
		b.Run(fmt.Sprintf("P(%d,%d,3)", size, size), func(b *testing.B) {
			p := ytPatterns[size]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.MatchWithOracle(p, ytGraph, ytOracle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6bMatchTotal(b *testing.B) {
	setup()
	b.ResetTimer()
	// Includes the distance-matrix construction, the paper's Match(Total).
	for i := 0; i < b.N; i++ {
		if _, err := core.Match(ytPattern, ytGraph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6bVF2(b *testing.B) {
	setup()
	b.ResetTimer()
	opts := gpm.IsoOptions{MaxEmbeddings: 1000, MaxSteps: 2_000_000}
	for size := 3; size <= 8; size++ {
		b.Run(fmt.Sprintf("P(%d,%d,3)", size, size), func(b *testing.B) {
			p := ytPatterns[size]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				subiso.VF2(p, ytGraph, opts)
			}
		})
	}
}

func BenchmarkFig6cCountMatches(b *testing.B) {
	setup()
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		res, err := core.MatchWithOracle(ytPattern, ytGraph, ytOracle)
		if err != nil {
			b.Fatal(err)
		}
		pairs = res.Pairs()
	}
	_ = pairs
}

func BenchmarkFig6dExtraEdges(b *testing.B) {
	setup()
	b.ResetTimer()
	for _, extra := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("x=%d", extra), func(b *testing.B) {
			p := gpm.GeneratePattern(gpm.PatternGenConfig{
				Nodes: 6, Edges: 5 + extra, K: 9, C: 2, Seed: 11,
			}, synGraph)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.MatchWithOracle(p, synGraph, synOracle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6eVariants(b *testing.B) {
	setup()
	b.ResetTimer()
	hop := core.BuildTwoHopOracle(ytGraph)
	b.Run("Match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MatchWithOracle(ytPattern, ytGraph, ytOracle)
		}
	})
	b.Run("2hop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MatchWithOracle(ytPattern, ytGraph, hop)
		}
	})
	b.Run("BFS", func(b *testing.B) {
		// One oracle for the loop: constructing per iteration would
		// re-pay the O(|V|+|E|) freeze inside the timed region.
		bo := core.NewBFSOracle(ytGraph)
		for i := 0; i < b.N; i++ {
			core.MatchWithOracle(ytPattern, ytGraph, bo)
		}
	})
}

func BenchmarkFig6fghEdgeScaling(b *testing.B) {
	for _, factor := range []int{1, 2, 3} {
		g := gpm.GenerateGraph(gpm.GraphGenConfig{
			Nodes: 1000, Edges: factor * 1000, Attrs: 100, Model: gpm.ModelER, Seed: 7,
		})
		o := core.BuildMatrixOracle(g)
		p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 6, Edges: 6, K: 3, Seed: 5}, g)
		b.Run(fmt.Sprintf("E=%dx", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MatchWithOracle(p, g, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// incrementalRoundTrip benches one Apply of ups followed by its inverse,
// returning the matcher to its starting state so iterations compose.
func incrementalRoundTrip(b *testing.B, ins, del int) {
	setup()
	b.ResetTimer()
	g := ytGraph.Clone()
	dm := incremental.NewDynMatrix(g)
	m, err := incremental.NewMatcher(ytPattern, dm)
	if err != nil {
		b.Fatal(err)
	}
	ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{Insertions: ins, Deletions: del, Seed: 99}, g)
	inverse := make([]gpm.Update, len(ups))
	for i, u := range ups {
		j := len(ups) - 1 - i
		if u.Insert {
			inverse[j] = gpm.DeleteEdge(u.U, u.V)
		} else {
			inverse[j] = gpm.InsertEdge(u.U, u.V)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Apply(ups); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Apply(inverse); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6iIncMatchMixed(b *testing.B)     { incrementalRoundTrip(b, 16, 16) }
func BenchmarkFig6jIncMatchDeletions(b *testing.B) { incrementalRoundTrip(b, 0, 32) }
func BenchmarkFig6kIncMatchInsertions(b *testing.B) {
	incrementalRoundTrip(b, 32, 0)
}

func BenchmarkFig6iBatchMatchCompetitor(b *testing.B) {
	setup()
	b.ResetTimer()
	// The batch side of Fig 6(i): recompute matrix + match from scratch.
	for i := 0; i < b.N; i++ {
		if _, err := core.Match(ytPattern, ytGraph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9BoundSweep(b *testing.B) {
	setup()
	b.ResetTimer()
	for _, k := range []int{4, 8, 13} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 6, Edges: 5, K: k, C: 2, Seed: 23}, synGraph)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.MatchWithOracle(p, synGraph, synOracle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGrResultGraph(b *testing.B) {
	setup()
	b.ResetTimer()
	res, err := core.MatchWithOracle(ytPattern, ytGraph, ytOracle)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.BuildResultGraph(res, ytOracle)
	}
}

func BenchmarkAblationMatrixBuild(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildMatrixOracle(ytGraph)
	}
}

func BenchmarkAblationTwoHopBuild(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildTwoHopOracle(ytGraph)
	}
}

func BenchmarkAblationPlainSimulation(b *testing.B) {
	setup()
	b.ResetTimer()
	// Plain simulation (all bounds 1) as the lower-bound baseline.
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Predicate{{Attr: "category", Op: gpm.OpEQ, Val: gpm.Str("Music")}})
	c := p.AddNode(gpm.Predicate{{Attr: "category", Op: gpm.OpEQ, Val: gpm.Str("Comedy")}})
	p.MustAddEdge(a, c, 1)
	for i := 0; i < b.N; i++ {
		if _, _, err := simulation.RunFrozen(context.Background(), p, ytGraph.Freeze()); err != nil {
			b.Fatal(err)
		}
	}
}

// Topology-preserving semantics (Ma et al., VLDB 2012) on the YouTube
// stand-in: dual simulation is the whole-graph fixpoint, strong
// simulation adds one ball-local fixpoint per candidate center. The
// all-bounds-one pattern is IsoBias-backed so it actually matches.
func topoPattern() *gpm.Pattern {
	return gpm.GeneratePattern(gpm.PatternGenConfig{
		Nodes: 4, Edges: 5, K: 1, IsoBias: true, PredAttrs: 1, Seed: 404,
	}, ytGraph)
}

func BenchmarkDualSim(b *testing.B) {
	setup()
	p := topoPattern()
	eng := gpm.NewEngine(ytGraph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrongSim(b *testing.B) {
	setup()
	p := topoPattern()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := gpm.NewEngine(ytGraph, gpm.WithWorkers(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColoredMatchAuto times bounded Match with coloured pattern
// edges on a two-colour stand-in. first is a fresh engine's first
// query, so whatever the engine builds up front (the frozen snapshot)
// lands in it; steady cycles the patterns on a warm engine.
func BenchmarkColoredMatchAuto(b *testing.B) {
	for _, nodes := range []int{3000, 5000} {
		w := difftest.NewWorkload(3, difftest.Config{Nodes: nodes, Attrs: 20, Colors: 2, Patterns: 8})
		ctx := context.Background()
		match := func(b *testing.B, eng *gpm.Engine, i int) {
			if _, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: w.Patterns[i%len(w.Patterns)]}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("nodes=%d/first", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				match(b, gpm.NewEngine(w.G), i)
			}
		})
		b.Run(fmt.Sprintf("nodes=%d/steady", nodes), func(b *testing.B) {
			eng := gpm.NewEngine(w.G)
			for i := range w.Patterns {
				match(b, eng, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				match(b, eng, i)
			}
		})
	}
}

// BenchmarkResultGraphAuto times Engine.ResultGraph on the bounded
// matches of a stand-in's patterns: the witnesses
// of each matched source come from one walk over the frozen snapshot,
// whose scratch is reset through the nodes the walk reached. The matches
// are computed before the timer; edges/op is the result graphs' mean
// edge count.
func BenchmarkResultGraphAuto(b *testing.B) {
	for _, nodes := range []int{3000, 20000} {
		w := difftest.NewWorkload(3, difftest.Config{Nodes: nodes, Attrs: 20, Patterns: 8, IsoBias: true})
		eng := gpm.NewEngine(w.G)
		var results []*gpm.RelationResult
		var matched []*gpm.Pattern
		for _, p := range w.Patterns {
			r, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				b.Fatal(err)
			}
			if r.OK {
				results, matched = append(results, r), append(matched, p)
			}
		}
		if len(results) == 0 {
			b.Fatalf("%d nodes: no pattern matched", nodes)
		}
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				edges += len(eng.ResultGraph(matched[i%len(results)], results[i%len(results)]).Edges)
			}
			b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
		})
	}
}

// BenchmarkRangedMatch times bounded Match with the hopranges example's
// pattern edge, a walk of 2..4 hops, on every edge of a 3000-node
// stand-in's patterns; the snapshot is frozen before the timer.
func BenchmarkRangedMatch(b *testing.B) {
	w := difftest.NewWorkload(3, difftest.Config{Nodes: 3000, Attrs: 20, Patterns: 8})
	ps := make([]*gpm.Pattern, len(w.Patterns))
	for i, p := range w.Patterns {
		ps[i] = gpm.NewPattern()
		for u := 0; u < p.N(); u++ {
			ps[i].AddNode(p.Pred(u))
		}
		for _, e := range p.Edges() {
			if _, err := ps[i].AddRangeEdge(e.From, e.To, 2, 4, ""); err != nil {
				b.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	eng := gpm.NewEngine(w.G)
	if _, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: ps[0]}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: ps[i%len(ps)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchPastWitnessCap times queries where the 32 MiB per-query
// cap on witness matrices binds: a 20000-node graph with a two-value
// label alphabet, so every pattern node has ~10000 candidates and a
// witness matrix would cost ~12 MB a constraint. Plain and dual
// simulation run the same workloads with every bound 1, where no
// constraint keeps a matrix. Past the cap a removal sweeps back from the
// removed node, and at k = 1 walks its arcs; removals/op is the
// fixpoint's exact count. The snapshot is frozen before the timer.
func BenchmarkMatchPastWitnessCap(b *testing.B) {
	for _, seed := range []int64{0, 4} { // ER and power-law, label-only predicates
		w := difftest.NewWorkload(seed, difftest.Config{Nodes: 20000, Attrs: 2, Patterns: 8})
		k1 := difftest.NewWorkload(seed, difftest.Config{Nodes: 20000, Attrs: 2, Patterns: 8, K: 1})
		for _, row := range []struct {
			name string
			sem  gpm.RelSemantics
			w    *difftest.Workload
		}{
			{"match", gpm.RelMatch, w},
			{"sim", gpm.RelSim, k1},
			{"dual", gpm.RelDual, k1},
		} {
			b.Run(fmt.Sprintf("seed=%d/%s", seed, row.name), func(b *testing.B) {
				ctx := context.Background()
				eng := gpm.NewEngine(row.w.G)
				query := func(p *gpm.Pattern) gpm.MatchStats {
					r, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: row.sem, Pattern: p})
					if err != nil {
						b.Fatal(err)
					}
					return r.Stats
				}
				query(row.w.Patterns[0])
				var removals int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					removals += query(row.w.Patterns[i%len(row.w.Patterns)]).Removals
				}
				b.ReportMetric(float64(removals)/float64(b.N), "removals/op")
			})
		}
	}
}
