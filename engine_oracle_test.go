package gpm_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"gpm"
	"gpm/internal/difftest"
	"gpm/internal/pll"
)

// TestEnginePLLSingleFlight: many goroutines issue the FIRST query
// against a PLL engine concurrently; the lazy oracle build must run
// exactly once (the others wait on buildMu and reuse the cached index).
// Under -race this also proves the build/publish handoff is clean.
// Not parallel: it installs the global build hook.
func TestEnginePLLSingleFlight(t *testing.T) {
	g := engineTestGraph(t, 600, 2400, 21)
	p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 4, Edges: 4, K: 3, Seed: 7}, g)

	var builds atomic.Int64
	gpm.SetTestHookPLLBuild(func() { builds.Add(1) })
	defer gpm.SetTestHookPLLBuild(nil)

	eng := gpm.NewEngine(g, gpm.WithOracle(gpm.OraclePLL))
	want, err := gpm.Match(p, g)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Match(context.Background(), p)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Relation(), want.Relation()) {
				errs <- errors.New("concurrent first query: relation mismatch")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("concurrent first queries ran %d PLL builds, want 1", n)
	}
}

// TestEnginePLLBuildCancellation: cancelling the query context while the
// lazy PLL build is in flight aborts the build with the context's error
// — and the NEXT query retries the build and succeeds, so one caller's
// deadline cannot wedge the engine forever. The hook cancels at the
// exact moment the build starts, which makes the mid-build timing
// deterministic (a plain short deadline could also trip Match's
// entry-point check and never reach the build).
// Not parallel: it installs the global build hook.
func TestEnginePLLBuildCancellation(t *testing.T) {
	g := engineTestGraph(t, 1500, 6000, 22)
	p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 4, Edges: 4, K: 3, Seed: 9}, g)

	eng := gpm.NewEngine(g, gpm.WithOracle(gpm.OraclePLL))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var builds atomic.Int64
	gpm.SetTestHookPLLBuild(func() {
		builds.Add(1)
		cancel()
	})
	defer gpm.SetTestHookPLLBuild(nil)

	if _, err := eng.Match(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-build: err = %v, want context.Canceled", err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build hook ran %d times, want 1", n)
	}

	// The aborted build must not be cached: a fresh context retries it.
	gpm.SetTestHookPLLBuild(func() { builds.Add(1) })
	res, err := eng.Match(context.Background(), p)
	if err != nil {
		t.Fatalf("retry after cancelled build: %v", err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("retry did not rebuild (hook ran %d times, want 2)", n)
	}
	want, err := gpm.Match(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Relation(), want.Relation()) {
		t.Fatal("retry after cancelled build: relation mismatch")
	}
}

// TestEngineOraclePLLTooLarge: forcing OraclePLL onto a graph past the
// labelling's 24-bit addressing limit must not panic at bind time (the
// old behavior) — the engine binds, and oracle-backed queries fail with
// ErrGraphTooLarge. OracleAuto on the same graph falls back to BFS and
// keeps working. MaxNodes is a variable precisely so this test does not
// need a 16M-node graph.
func TestEngineOraclePLLTooLarge(t *testing.T) {
	saved := pll.MaxNodes
	pll.MaxNodes = 64
	defer func() { pll.MaxNodes = saved }()

	g := engineTestGraph(t, 100, 300, 23)
	p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 2, Seed: 3}, g)

	eng := gpm.NewEngine(g, gpm.WithOracle(gpm.OraclePLL)) // must not panic
	if _, err := eng.Match(context.Background(), p); !errors.Is(err, gpm.ErrGraphTooLarge) {
		t.Fatalf("Match on oversized PLL engine: err = %v, want ErrGraphTooLarge", err)
	}
	if _, err := eng.MatchBatch(context.Background(), []*gpm.Pattern{p, p}); !errors.Is(err, gpm.ErrGraphTooLarge) {
		t.Fatalf("MatchBatch on oversized PLL engine: err = %v, want ErrGraphTooLarge", err)
	}
	// Oracle-less semantics stay usable on the same engine.
	if _, err := eng.Simulate(context.Background(), boundOnePattern()); err != nil {
		t.Fatalf("Simulate on oversized PLL engine: %v", err)
	}

	// Auto past the matrix threshold is BFS, which addresses any graph:
	// the labelling's limit never reaches it.
	big := gpm.NewGraph(4200)
	for i := 0; i < 4199; i++ {
		big.AddEdge(i, i+1)
	}
	auto := gpm.NewEngine(big, gpm.WithAutoOracle())
	if k := auto.OracleKind(); k != gpm.OracleBFS {
		t.Fatalf("auto on a 4200-node graph resolved %v, want bfs", k)
	}
	if _, err := auto.Match(context.Background(), p); err != nil {
		t.Fatalf("auto Match: %v", err)
	}
}

// TestEngineAutoBuildsNoLabelling: past the matrix threshold an auto
// engine is BFS-backed and builds nothing. Bounded matches, coloured
// matches among them, a batch and a result graph are all answered by
// witness sweeps — no PLL build, no build time charged, no probe — and
// equal the paper's probe-per-pair Match over a BFS oracle.
// Not parallel: it installs the global build hook.
func TestEngineAutoBuildsNoLabelling(t *testing.T) {
	w := difftest.NewWorkload(5, difftest.Config{Nodes: 4200, Colors: 2, Patterns: 6})
	var builds atomic.Int64
	gpm.SetTestHookPLLBuild(func() { builds.Add(1) })
	defer gpm.SetTestHookPLLBuild(nil)

	eng := gpm.NewEngine(w.G, gpm.WithAutoOracle(), gpm.WithWorkers(2))
	if k := eng.OracleKind(); k != gpm.OracleBFS {
		t.Fatalf("auto on %d nodes resolved %v, want bfs", w.G.N(), k)
	}
	ctx := context.Background()
	colored := 0
	var nonEmpty *gpm.MatchResult
	for i, p := range w.Patterns {
		if p.Colored() {
			colored++
		}
		res, err := eng.Match(ctx, p)
		if err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		if st := res.Stats; st.Oracle != gpm.OracleBFS || st.OracleBuild != 0 || st.OracleQueries != 0 || st.SweepScans == 0 {
			t.Errorf("pattern %d: stats %+v, want a BFS-served sweep with no build and no probe", i, st)
		}
		want, err := gpm.MatchBFS(p, w.G)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Relation(), want.Relation()) || res.OK() != want.OK() {
			t.Errorf("pattern %d: auto relation diverges from probe-per-pair Match", i)
		}
		if res.Pairs() > 0 && nonEmpty == nil {
			nonEmpty = res
		}
	}
	if colored == 0 {
		t.Fatal("workload has no coloured pattern")
	}

	batch, err := eng.MatchBatch(ctx, w.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch {
		if res.Stats.OracleBuild != 0 || res.Stats.Oracle != gpm.OracleBFS {
			t.Errorf("batch %d: stats %+v", i, res.Stats)
		}
		want, _ := gpm.MatchBFS(w.Patterns[i], w.G)
		if !reflect.DeepEqual(res.Relation(), want.Relation()) {
			t.Errorf("batch %d: relation diverges from probe-per-pair Match", i)
		}
	}

	if nonEmpty == nil {
		t.Fatal("every pattern matched nothing; the result graph check needs a match")
	}
	got := eng.ResultGraph(nonEmpty)
	if want := gpm.ResultGraphOf(nonEmpty.Result, gpm.NewBFSOracle(w.G)); !reflect.DeepEqual(got, want) {
		t.Error("result graph diverges from the BFS-probed one")
	}
	if n := builds.Load(); n != 0 {
		t.Fatalf("auto engine ran %d PLL builds, want 0", n)
	}
}
