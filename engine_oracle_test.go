package gpm_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"gpm"
	"gpm/internal/core"
	"gpm/internal/difftest"
	"gpm/internal/pll"
	"gpm/internal/simulation"
	"gpm/internal/topo"
)

// TestEngineOraclePLLTooLarge: forcing OraclePLL onto a graph past the
// labelling's 24-bit addressing limit once bound an engine whose bounded
// queries all failed. The engine now builds no labelling under any kind,
// so the limit never reaches it: match and sim queries, MatchBatch and
// ResultGraph answer, and equal core.MatchNaive and an auto engine.
// MaxNodes is a variable precisely so this test does not need a
// 16M-node graph.
func TestEngineOraclePLLTooLarge(t *testing.T) {
	saved := pll.MaxNodes
	pll.MaxNodes = 64
	defer func() { pll.MaxNodes = saved }()

	ctx := context.Background()
	g := engineTestGraph(t, 100, 300, 23)
	eng := gpm.NewEngine(g, gpm.WithOracle(gpm.OraclePLL)) // must not panic
	auto := gpm.NewEngine(g, gpm.WithAutoOracle())
	var res *gpm.RelationResult
	var p *gpm.Pattern
	for seed := int64(3); res == nil || !res.OK || p.AllBoundsOne(); seed++ {
		if seed == 40 {
			t.Fatal("no generated pattern matched; the result graph check needs a bounded match")
		}
		p = gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 2, IsoBias: true, Seed: seed}, g)
		var err error
		if res, err = eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p}); err != nil {
			t.Fatalf("Match on oversized PLL engine: %v", err)
		}
	}
	naive, err := core.MatchNaive(p, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Relation, naive.Relation()) {
		t.Fatalf("oversized PLL engine: %s", difftest.DiffRelations(res.Relation, naive.Relation()))
	}
	batch, err := eng.MatchBatch(ctx, []*gpm.Pattern{p, p})
	if err != nil {
		t.Fatalf("MatchBatch on oversized PLL engine: %v", err)
	}
	for i, r := range batch {
		if !reflect.DeepEqual(r.Relation, naive.Relation()) {
			t.Errorf("MatchBatch[%d]: %s", i, difftest.DiffRelations(r.Relation, naive.Relation()))
		}
	}
	if _, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: boundOnePattern()}); err != nil {
		t.Fatalf("sim on oversized PLL engine: %v", err)
	}
	want := core.BuildResultGraph(naive, core.BuildMatrixOracle(g))
	if got := eng.ResultGraph(p, res); !reflect.DeepEqual(got, want) {
		t.Error("oversized PLL engine: result graph differs from the matrix-probed one")
	}
	if got := auto.ResultGraph(p, res); !reflect.DeepEqual(got, want) {
		t.Error("auto engine: result graph differs from the matrix-probed one")
	}
}

// TestEngineAutoBuildsNoLabelling: an engine owns no distance oracle
// under any WithOracle kind, at any graph size. At 1000, 3000 and 4200
// nodes, for auto, matrix, BFS, 2-hop and PLL, no index build fires on
// any engine path — match on k > 1, "*", coloured and ranged patterns,
// MatchBatch, sim, dual, strong, ResultGraph and Update — no build
// time is charged and no probe is issued, and every relation equals
// core.MatchNaive's, simulation.RunNaive's or topo.NaiveDualSim's; the
// strong relations equal a default engine's computed before the hook
// went in, and the result graph the matrix-probed one.
// Not parallel: it installs the global build hook.
func TestEngineAutoBuildsNoLabelling(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1000, 3000, 4200} {
		w := difftest.NewWorkload(5, difftest.Config{Nodes: n, Attrs: 4, Colors: 2, StarProb: 0.3, Patterns: 4, IsoBias: true})
		patterns := w.Patterns
		for _, p := range w.Patterns {
			patterns = append(patterns, rangedCopy(p))
		}
		var bounded, star, colored, ranged int
		for _, p := range patterns {
			for _, e := range p.Edges() {
				switch {
				case e.Ranged():
					ranged++
				case e.Bound == gpm.Unbounded:
					star++
				case e.Bound > 1:
					bounded++
				}
			}
			if p.Colored() {
				colored++
			}
		}
		if bounded == 0 || star == 0 || colored == 0 || ranged == 0 {
			t.Fatalf("%d nodes: workload lacks an edge kind: %d bounded, %d *, %d ranged, %d coloured patterns", n, bounded, star, ranged, colored)
		}
		edgeToEdge := []*gpm.Pattern{boundOnePattern()}
		for i := int64(0); i < 2; i++ {
			edgeToEdge = append(edgeToEdge, gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 1, IsoBias: true, Seed: 40 + i}, w.G))
		}

		// The references. Strong simulation has no rescan referee, so its
		// come from a default engine, computed before the hook goes in.
		want := make([]*core.Result, len(patterns))
		for i, p := range patterns {
			var err error
			if want[i], err = core.MatchNaive(p, w.G, nil); err != nil {
				t.Fatal(err)
			}
		}
		f := w.G.Freeze()
		ref := gpm.NewEngine(w.G)
		var wantTopo [][3][][]int32
		for _, p := range edgeToEdge {
			sim, _, err := simulation.RunNaive(p, f)
			if err != nil {
				t.Fatal(err)
			}
			dual, _ := topo.NaiveDualSim(p, f, nil)
			strong, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
			if err != nil {
				t.Fatal(err)
			}
			wantTopo = append(wantTopo, [3][][]int32{sim, dual, strong.Relation})
		}
		var wantRG *gpm.ResultGraph

		var builds atomic.Int64
		gpm.SetTestHookOracleBuild(func(gpm.OracleKind) { builds.Add(1) })
		for _, kind := range []gpm.OracleKind{gpm.OracleAuto, gpm.OracleMatrix, gpm.OracleBFS, gpm.OracleTwoHop, gpm.OraclePLL} {
			eng := gpm.NewEngine(w.G.Clone(), gpm.WithOracle(kind), gpm.WithWorkers(2))
			if k := eng.OracleKind(); k != gpm.OracleNone {
				t.Fatalf("%v on %d nodes resolved %v, want none", kind, n, k)
			}
			check := func(what string, st gpm.MatchStats, got, want [][]int32) {
				t.Helper()
				if st.Oracle != gpm.OracleNone || st.OracleBuild != 0 || st.OracleQueries != 0 {
					t.Errorf("%d nodes %v %s: stats %+v, want no oracle, no build and no probe", n, kind, what, st)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d nodes %v %s: %s", n, kind, what, difftest.DiffRelations(got, want))
				}
			}
			var nonEmpty *gpm.RelationResult
			var nonEmptyAt int
			for i, p := range patterns {
				res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
				if err != nil {
					t.Fatalf("%d nodes %v pattern %d: %v", n, kind, i, err)
				}
				check(fmt.Sprintf("pattern %d", i), res.Stats, res.Relation, want[i].Relation())
				if res.OK && !p.AllBoundsOne() && (nonEmpty == nil || res.Pairs() < nonEmpty.Pairs()) {
					nonEmpty, nonEmptyAt = res, i
				}
			}
			batch, err := eng.MatchBatch(ctx, patterns)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range batch {
				check(fmt.Sprintf("batch %d", i), res.Stats, res.Relation, want[i].Relation())
			}
			for i, p := range edgeToEdge {
				sim, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: p})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("sim %d", i), sim.Stats, sim.Relation, wantTopo[i][0])
				dual, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("dual %d", i), dual.Stats, dual.Relation, wantTopo[i][1])
				strong, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("strong %d", i), strong.Stats, strong.Relation, wantTopo[i][2])
			}
			if nonEmpty == nil {
				t.Fatalf("%d nodes: no bounded pattern matched; the result graph check needs a match", n)
			}
			if wantRG == nil {
				wantRG = core.BuildResultGraph(want[nonEmptyAt], core.BuildMatrixOracle(w.G))
			}
			if got := eng.ResultGraph(patterns[nonEmptyAt], nonEmpty); !reflect.DeepEqual(got, wantRG) {
				t.Errorf("%d nodes %v: result graph differs from the matrix-probed one", n, kind)
			}
			e := w.G.EdgeList()[0]
			if _, err := eng.Update(gpm.DeleteEdge(int(e[0]), int(e[1])), gpm.InsertEdge(int(e[1]), int(e[0]))); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: patterns[0]}); err != nil {
				t.Fatal(err)
			}
		}
		gpm.SetTestHookOracleBuild(nil)
		if b := builds.Load(); b != 0 {
			t.Fatalf("%d nodes: the engines ran %d index builds, want 0", n, b)
		}
	}
}

// rangedCopy returns p with every edge turned into a hop range: bound k
// becomes [2, k+1], "*" becomes [2, 4].
func rangedCopy(p *gpm.Pattern) *gpm.Pattern {
	q := gpm.NewPattern()
	for u := 0; u < p.N(); u++ {
		q.AddNode(p.Pred(u))
	}
	for _, e := range p.Edges() {
		hi := e.Bound + 1
		if e.Bound == gpm.Unbounded {
			hi = 4
		}
		if _, err := q.AddRangeEdge(e.From, e.To, 2, hi, e.Color); err != nil {
			panic(err)
		}
	}
	return q
}

// TestResultGraphOfAllocsIndependentOfGraphSize: Engine.ResultGraph reads a
// bounded result graph's witnesses off one walk per matched source, with
// scratch allocated once per call and reset through the nodes each walk
// reached. The same result on a 400- and a 4000-node graph then costs
// the same allocations, and its bytes grow by that one |V|-sized
// scratch, not by one per source.
func TestResultGraphOfAllocsIndependentOfGraphSize(t *testing.T) {
	p := gpm.NewPattern()
	a, b, c := p.AddNode(gpm.Label("A")), p.AddNode(gpm.Label("B")), p.AddNode(gpm.Label("C"))
	p.MustAddEdge(a, b, 3)
	p.MustAddEdge(b, c, 3)
	p.MustAddEdge(c, a, 3)
	type cost struct {
		allocs, bytes float64
		rg            *gpm.ResultGraph
	}
	measure := func(n int) cost {
		// Only the first 60 nodes carry a pattern label, an arc 59 -> 0
		// closes them into a cycle, and no walk of three arcs from them
		// wraps around the graph, so the result is the same at every
		// size.
		g := gpm.NewGraph(n)
		for i := 0; i < n; i++ {
			label := "rest"
			if i < 60 {
				label = []string{"A", "B", "C"}[i%3]
			}
			g.SetAttr(i, gpm.Attrs{"label": gpm.Str(label)})
			g.AddEdge(i, (i+1)%n)
			g.AddEdge(i, (i+7)%n)
		}
		g.AddEdge(59, 0)
		eng := gpm.NewEngine(g, gpm.WithAutoOracle())
		res, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("%d nodes: the triangle does not match", n)
		}
		var rg *gpm.ResultGraph
		run := func() { rg = eng.ResultGraph(p, res) }
		run() // warm the frozen snapshot
		const runs = 20
		allocs := testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return cost{allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs, rg}
	}
	small, large := measure(400), measure(4000)
	if !reflect.DeepEqual(small.rg, large.rg) {
		t.Fatal("the result graph differs between the two sizes")
	}
	if len(small.rg.Edges) == 0 {
		t.Fatal("empty result graph")
	}
	if large.allocs > small.allocs+2 {
		t.Errorf("allocations grow with |V|: %.0f at 400 nodes, %.0f at 4000", small.allocs, large.allocs)
	}
	// A walk's scratch is an int32 length and a bool mark per node.
	if grow, limit := large.bytes-small.bytes, 8.0*(4000-400); grow > limit {
		t.Errorf("bytes grow by %.0f from 400 to 4000 nodes, want at most %.0f (one |V|-sized scratch)", grow, limit)
	}
}
