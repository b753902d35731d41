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
//	BenchmarkColoredMatch*  – coloured /match past the auto matrix threshold
package gpm_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gpm"
	"gpm/internal/difftest"
)

// Shared fixtures, built once.
var (
	fixOnce    sync.Once
	ytGraph    *gpm.Graph     // scaled YouTube stand-in
	ytOracle   gpm.DistOracle // matrix oracle over ytGraph
	ytPattern  *gpm.Pattern   // P(4,4,3) walk pattern
	ytPatterns map[int]*gpm.Pattern
	synGraph   *gpm.Graph
	synOracle  gpm.DistOracle
)

func setup() {
	fixOnce.Do(func() {
		var err error
		ytGraph, err = gpm.Dataset("youtube", 20100913, 0.05)
		if err != nil {
			panic(err)
		}
		ytOracle = gpm.NewMatrixOracle(ytGraph)
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
		synOracle = gpm.NewMatrixOracle(synGraph)
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
		if _, err := gpm.MatchWithOracle(ytPattern, ytGraph, ytOracle); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aSubIso(b *testing.B) {
	setup()
	b.ResetTimer()
	opts := gpm.IsoOptions{MaxEmbeddings: 1000, MaxSteps: 2_000_000}
	for i := 0; i < b.N; i++ {
		gpm.Ullmann(ytPattern, ytGraph, opts)
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
				if _, err := gpm.MatchWithOracle(p, ytGraph, ytOracle); err != nil {
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
		if _, err := gpm.Match(ytPattern, ytGraph); err != nil {
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
				gpm.VF2(p, ytGraph, opts)
			}
		})
	}
}

func BenchmarkFig6cCountMatches(b *testing.B) {
	setup()
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		res, err := gpm.MatchWithOracle(ytPattern, ytGraph, ytOracle)
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
				if _, err := gpm.MatchWithOracle(p, synGraph, synOracle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6eVariants(b *testing.B) {
	setup()
	b.ResetTimer()
	hop := gpm.NewTwoHopOracle(ytGraph)
	b.Run("Match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gpm.MatchWithOracle(ytPattern, ytGraph, ytOracle)
		}
	})
	b.Run("2hop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gpm.MatchWithOracle(ytPattern, ytGraph, hop)
		}
	})
	b.Run("BFS", func(b *testing.B) {
		// One oracle for the loop: constructing per iteration would
		// re-pay the O(|V|+|E|) freeze inside the timed region.
		bo := gpm.NewBFSOracle(ytGraph)
		for i := 0; i < b.N; i++ {
			gpm.MatchWithOracle(ytPattern, ytGraph, bo)
		}
	})
}

func BenchmarkFig6fghEdgeScaling(b *testing.B) {
	for _, factor := range []int{1, 2, 3} {
		g := gpm.GenerateGraph(gpm.GraphGenConfig{
			Nodes: 1000, Edges: factor * 1000, Attrs: 100, Model: gpm.ModelER, Seed: 7,
		})
		o := gpm.NewMatrixOracle(g)
		p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 6, Edges: 6, K: 3, Seed: 5}, g)
		b.Run(fmt.Sprintf("E=%dx", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gpm.MatchWithOracle(p, g, o); err != nil {
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
	dm := gpm.NewDynamicMatrix(g)
	m, err := gpm.NewIncrementalMatcher(ytPattern, dm)
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
		if _, err := gpm.Match(ytPattern, ytGraph); err != nil {
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
				if _, err := gpm.MatchWithOracle(p, synGraph, synOracle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGrResultGraph(b *testing.B) {
	setup()
	b.ResetTimer()
	res, err := gpm.MatchWithOracle(ytPattern, ytGraph, ytOracle)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gpm.ResultGraphOf(res, ytOracle)
	}
}

func BenchmarkAblationMatrixBuild(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpm.NewMatrixOracle(ytGraph)
	}
}

func BenchmarkAblationTwoHopBuild(b *testing.B) {
	setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpm.NewTwoHopOracle(ytGraph)
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
		if _, _, err := gpm.Simulate(p, ytGraph); err != nil {
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
		if _, err := eng.DualSimulate(context.Background(), p); err != nil {
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
				if _, err := eng.StrongSimulate(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColoredMatchAuto times bounded Match with coloured pattern
// edges on a two-colour stand-in under WithAutoOracle, the engine gpmd
// binds by default: 3000 nodes land on auto's matrix side, 5000 on its
// BFS side. first is a fresh engine's first query, so whatever the auto
// oracle builds up front lands in it; steady cycles the patterns on a
// warm engine. probes/op counts the oracle probes.
func BenchmarkColoredMatchAuto(b *testing.B) {
	for _, nodes := range []int{3000, 5000} {
		w := difftest.NewWorkload(3, difftest.Config{Nodes: nodes, Attrs: 20, Colors: 2, Patterns: 8})
		ctx := context.Background()
		match := func(b *testing.B, eng *gpm.Engine, i int) int64 {
			r, err := eng.Match(ctx, w.Patterns[i%len(w.Patterns)])
			if err != nil {
				b.Fatal(err)
			}
			return r.Stats.OracleQueries
		}
		b.Run(fmt.Sprintf("nodes=%d/first", nodes), func(b *testing.B) {
			var probes int64
			for i := 0; i < b.N; i++ {
				probes += match(b, gpm.NewEngine(w.G, gpm.WithAutoOracle()), i)
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
		})
		b.Run(fmt.Sprintf("nodes=%d/steady", nodes), func(b *testing.B) {
			eng := gpm.NewEngine(w.G, gpm.WithAutoOracle())
			for i := range w.Patterns {
				match(b, eng, i)
			}
			var probes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probes += match(b, eng, i)
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
		})
	}
}

// BenchmarkRangedMatch times bounded Match with the hopranges example's
// pattern edge, a walk of 2..4 hops, on every edge of a 3000-node
// stand-in's patterns, under the matrix oracle (built before the timer),
// which no ranged edge asks.
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
	eng := gpm.NewEngine(w.G, gpm.WithOracle(gpm.OracleMatrix))
	if _, err := eng.Match(ctx, ps[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Match(ctx, ps[i%len(ps)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchPastWitnessCap times queries where the 32 MiB per-query
// cap on witness matrices binds: a 20000-node graph with a two-value
// label alphabet, so every pattern node has ~10000 candidates and a
// witness matrix would cost ~12 MB a constraint. Bounded Match runs
// under PLL and auto (BFS); plain and dual simulation run the same
// workloads with every bound 1, where no constraint keeps a matrix.
// Past the cap a removal sweeps back from the removed node, and at k = 1
// walks its arcs, so probes/op is 0 whenever counter initialisation
// swept; removals/op is the fixpoint's exact count. Oracle builds happen
// before the timer.
func BenchmarkMatchPastWitnessCap(b *testing.B) {
	for _, seed := range []int64{0, 4} { // ER and power-law, label-only predicates
		w := difftest.NewWorkload(seed, difftest.Config{Nodes: 20000, Attrs: 2, Patterns: 8})
		k1 := difftest.NewWorkload(seed, difftest.Config{Nodes: 20000, Attrs: 2, Patterns: 8, K: 1})
		for _, row := range []struct {
			name string
			kind gpm.OracleKind
			sem  gpm.RelSemantics
			w    *difftest.Workload
		}{
			{"match/pll", gpm.OraclePLL, gpm.RelMatch, w},
			{"match/auto", gpm.OracleAuto, gpm.RelMatch, w},
			{"sim", gpm.OracleAuto, gpm.RelSim, k1},
			{"dual", gpm.OracleAuto, gpm.RelDual, k1},
		} {
			b.Run(fmt.Sprintf("seed=%d/%s", seed, row.name), func(b *testing.B) {
				ctx := context.Background()
				eng := gpm.NewEngine(row.w.G, gpm.WithOracle(row.kind))
				query := func(p *gpm.Pattern) gpm.MatchStats {
					r, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: row.sem, Pattern: p})
					if err != nil {
						b.Fatal(err)
					}
					return r.Stats
				}
				query(row.w.Patterns[0])
				var probes, removals int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st := query(row.w.Patterns[i%len(row.w.Patterns)])
					probes += st.OracleQueries
					removals += st.Removals
				}
				b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
				b.ReportMetric(float64(removals)/float64(b.N), "removals/op")
			})
		}
	}
}
