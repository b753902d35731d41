package gpm_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gpm"
)

func engineTestGraph(tb testing.TB, nodes, edges int, seed int64) *gpm.Graph {
	tb.Helper()
	return gpm.GenerateGraph(gpm.GraphGenConfig{
		Nodes: nodes, Edges: edges, Attrs: 20, Model: gpm.ModelER, Seed: seed,
	})
}

func engineTestPatterns(tb testing.TB, g *gpm.Graph, n int) []*gpm.Pattern {
	tb.Helper()
	ps := make([]*gpm.Pattern, 0, n)
	for i := 0; i < n; i++ {
		ps = append(ps, gpm.GeneratePattern(gpm.PatternGenConfig{
			Nodes: 4, Edges: 4, K: 3, Seed: int64(1000 + i),
		}, g))
	}
	return ps
}

// TestEngineMatchEquivalence: every oracle kind produces the same
// relation as the deprecated per-call entry points.
func TestEngineMatchEquivalence(t *testing.T) {
	g := engineTestGraph(t, 300, 1200, 11)
	patterns := engineTestPatterns(t, g, 6)
	kinds := []gpm.OracleKind{gpm.OracleMatrix, gpm.OracleBFS, gpm.OracleTwoHop, gpm.OraclePLL, gpm.OracleAuto}
	for _, kind := range kinds {
		eng := gpm.NewEngine(g, gpm.WithOracle(kind))
		for i, p := range patterns {
			want, err := gpm.Match(p, g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Match(context.Background(), p)
			if err != nil {
				t.Fatalf("kind %v pattern %d: %v", kind, i, err)
			}
			if got.OK() != want.OK() || !reflect.DeepEqual(got.Relation(), want.Relation()) {
				t.Fatalf("kind %v pattern %d: engine relation differs from Match", kind, i)
			}
			if got.Stats.Oracle == gpm.OracleAuto {
				t.Fatalf("kind %v: stats report an unresolved oracle kind", kind)
			}
		}
	}
}

// TestEngineConcurrentMatch hammers one shared engine from many
// goroutines; run under -race this is the concurrency-safety check. The
// colored patterns force the lazily built color submatrices to race.
func TestEngineConcurrentMatch(t *testing.T) {
	g := gpm.NewGraph(0)
	const n = 120
	for i := 0; i < n; i++ {
		g.AddNode(gpm.Attrs{"label": gpm.Str(fmt.Sprintf("L%d", i%4))})
	}
	for i := 0; i < n; i++ {
		g.AddColoredEdge(i, (i+1)%n, "ring")
		g.AddEdge(i, (i+7)%n)
	}

	plain := gpm.NewPattern()
	pa := plain.AddNode(gpm.Label("L0"))
	pb := plain.AddNode(gpm.Label("L2"))
	plain.MustAddEdge(pa, pb, 3)

	colored := gpm.NewPattern()
	ca := colored.AddNode(gpm.Label("L1"))
	cb := colored.AddNode(gpm.Label("L3"))
	if _, err := colored.AddColoredEdge(ca, cb, 4, "ring"); err != nil {
		t.Fatal(err)
	}

	for _, kind := range []gpm.OracleKind{gpm.OracleMatrix, gpm.OracleBFS, gpm.OracleTwoHop, gpm.OraclePLL} {
		eng := gpm.NewEngine(g, gpm.WithOracle(kind))
		wantPlain, err := eng.Match(context.Background(), plain)
		if err != nil {
			t.Fatal(err)
		}
		wantColored, err := eng.Match(context.Background(), colored)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh engine so goroutines also race on the lazy oracle build.
		eng = gpm.NewEngine(g, gpm.WithOracle(kind))

		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers*8)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for it := 0; it < 4; it++ {
					p, want := plain, wantPlain
					if (w+it)%2 == 1 {
						p, want = colored, wantColored
					}
					res, err := eng.Match(context.Background(), p)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Relation(), want.Relation()) {
						errs <- fmt.Errorf("kind %v worker %d: relation mismatch", kind, w)
						return
					}
					if _, err := eng.Simulate(context.Background(), boundOnePattern()); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

func boundOnePattern() *gpm.Pattern {
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("L0"))
	b := p.AddNode(gpm.Label("L1"))
	p.MustAddEdge(a, b, 1)
	return p
}

// TestEngineAutoOracle checks WithAutoOracle's one threshold: the
// distance matrix up to 4096 nodes, BFS above it whatever the density.
// Auto never resolves to a labelling.
func TestEngineAutoOracle(t *testing.T) {
	for _, n := range []int{100, 4096} {
		if k := gpm.NewEngine(gpm.NewGraph(n), gpm.WithAutoOracle()).OracleKind(); k != gpm.OracleMatrix {
			t.Errorf("%d nodes: auto picked %v, want matrix", n, k)
		}
	}

	largeSparse := gpm.NewGraph(5000)
	for i := 0; i < 4999; i++ {
		largeSparse.AddEdge(i, i+1)
	}
	if k := gpm.NewEngine(largeSparse, gpm.WithAutoOracle()).OracleKind(); k != gpm.OracleBFS {
		t.Errorf("large sparse: auto picked %v, want bfs", k)
	}

	largeDense := gpm.NewGraph(5000)
	for off := 1; off <= 3; off++ {
		for i := 0; i < 5000; i++ {
			largeDense.AddEdge(i, (i+off)%5000)
		}
	}
	if k := gpm.NewEngine(largeDense, gpm.WithAutoOracle()).OracleKind(); k != gpm.OracleBFS {
		t.Errorf("large dense: auto picked %v, want bfs", k)
	}

	// The default (no options) is the paper's matrix configuration.
	if k := gpm.NewEngine(largeDense).OracleKind(); k != gpm.OracleMatrix {
		t.Errorf("default: picked %v, want matrix", k)
	}
}

// TestNewEngineRejectsInvalidOracle: OracleNone is a stats marker, not
// a strategy — binding with it must panic instead of silently building
// a matrix.
func TestNewEngineRejectsInvalidOracle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine(WithOracle(OracleNone)) did not panic")
		}
	}()
	gpm.NewEngine(gpm.NewGraph(10), gpm.WithOracle(gpm.OracleNone))
}

// TestEngineMatchCancellation: a cancelled context aborts Match with
// ctx.Err() — both when cancelled up front and when the deadline expires
// during the fixpoint.
func TestEngineMatchCancellation(t *testing.T) {
	g := engineTestGraph(t, 2000, 8000, 3)
	p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 4, Edges: 4, K: 3, Seed: 5}, g)

	eng := gpm.NewEngine(g, gpm.WithOracle(gpm.OracleBFS))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Match(cancelled, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	time.Sleep(2 * time.Millisecond) // let the deadline pass mid-setup
	if _, err := eng.Match(ctx, p); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}

	// Enumerate and Simulate honour cancellation too.
	if _, err := eng.Enumerate(cancelled, p, gpm.IsoOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("enumerate: err = %v, want context.Canceled", err)
	}
	if _, err := eng.Simulate(cancelled, boundOnePattern()); !errors.Is(err, context.Canceled) {
		t.Fatalf("simulate: err = %v, want context.Canceled", err)
	}
}

// TestEngineWatchUpdate: two watchers share the engine's maintained
// matrix; after every update batch each agrees with a from-scratch
// Match, and so does a fresh engine query.
func TestEngineWatchUpdate(t *testing.T) {
	g := engineTestGraph(t, 200, 800, 17)
	eng := gpm.NewEngine(g)
	p1 := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 2, K: 2, Seed: 21}, g)
	p2 := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 4, Edges: 3, K: 3, Seed: 22}, g)

	w1, err := eng.Watch(p1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := eng.Watch(p2)
	if err != nil {
		t.Fatal(err)
	}

	for batch := 0; batch < 4; batch++ {
		ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{
			Insertions: 15, Deletions: 15, Seed: int64(300 + batch),
		}, eng.Graph())
		deltas, err := eng.Update(ups...)
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) != 2 {
			t.Fatalf("batch %d: %d deltas, want 2", batch, len(deltas))
		}
		for i, w := range []*gpm.Watcher{w1, w2} {
			scratch, err := gpm.Match(w.Pattern(), eng.Graph())
			if err != nil {
				t.Fatal(err)
			}
			if w.OK() != scratch.OK() || w.Pairs() != scratch.Pairs() {
				t.Fatalf("batch %d watcher %d: |S|=%d ok=%v, scratch |S|=%d ok=%v",
					batch, i, w.Pairs(), w.OK(), scratch.Pairs(), scratch.OK())
			}
		}
		// A fresh engine query sees the maintained (post-update) matrix.
		res, err := eng.Match(context.Background(), p1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs() != w1.Pairs() {
			t.Fatalf("batch %d: engine.Match |S|=%d, watcher |S|=%d", batch, res.Pairs(), w1.Pairs())
		}
	}

	w2.Close()
	ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{Insertions: 5, Deletions: 5, Seed: 999}, eng.Graph())
	deltas, err := eng.Update(ups...)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Watcher != w1 {
		t.Fatalf("after Close: got %d deltas, want only w1's", len(deltas))
	}
}

// TestEngineUpdateWithoutWatchers: with no maintained state, Update is a
// structural change and later queries observe it.
func TestEngineUpdateWithoutWatchers(t *testing.T) {
	g := gpm.NewGraph(3)
	g.SetAttr(0, gpm.Attrs{"label": gpm.Str("A")})
	g.SetAttr(1, gpm.Attrs{"label": gpm.Str("B")})
	g.SetAttr(2, gpm.Attrs{"label": gpm.Str("C")})
	g.AddEdge(0, 1)

	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	c := p.AddNode(gpm.Label("C"))
	p.MustAddEdge(a, c, 2)

	eng := gpm.NewEngine(g, gpm.WithOracle(gpm.OracleBFS))
	res, err := eng.Match(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("should not match before inserting 1->2")
	}
	if _, err := eng.Update(gpm.InsertEdge(1, 2)); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Match(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal("should match after inserting 1->2")
	}

	// Invalid updates leave the graph untouched.
	if _, err := eng.Update(gpm.InsertEdge(0, 1)); err == nil {
		t.Fatal("inserting an existing edge should fail")
	}
}

// TestEngineStatsAndResultGraph: the first matrix query pays the oracle
// build, later ones hit the cache; the result graph comes out of the
// engine's cached oracle.
func TestEngineStatsAndResultGraph(t *testing.T) {
	g := engineTestGraph(t, 400, 1600, 29)
	eng := gpm.NewEngine(g) // matrix
	var p *gpm.Pattern
	for seed := int64(40); ; seed++ {
		p = gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 2, K: 2, Seed: seed}, g)
		if res, err := gpm.Match(p, g); err == nil && res.OK() {
			break
		}
	}

	first, err := eng.Match(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.OracleBuild <= 0 {
		t.Error("first query: OracleBuild should be > 0")
	}
	if first.Stats.Oracle != gpm.OracleMatrix {
		t.Errorf("stats oracle = %v, want matrix", first.Stats.Oracle)
	}
	// Sweeps are work too: on a plain pattern the engine's snapshot answers
	// every witness question and the oracle is never probed.
	if first.Stats.OracleQueries+first.Stats.SweepScans == 0 || first.Stats.InitialPairs == 0 {
		t.Errorf("work counters empty: %+v", first.Stats)
	}

	second, err := eng.Match(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.OracleBuild != 0 {
		t.Errorf("second query: OracleBuild = %v, want 0 (cache hit)", second.Stats.OracleBuild)
	}

	rg := eng.ResultGraph(first)
	if n, _ := rg.Size(); n == 0 {
		t.Error("result graph of an OK match should be nonempty")
	}
}

// TestEngineSimulateEnumerate: parity with the deprecated entry points
// plus algorithm selection through IsoOptions.Algo.
func TestEngineSimulateEnumerate(t *testing.T) {
	g := engineTestGraph(t, 150, 600, 31)
	eng := gpm.NewEngine(g)

	simP := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 2, K: 1, Seed: 51}, g)
	wantRel, wantOK, err := gpm.Simulate(simP, g)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eng.Simulate(context.Background(), simP)
	if err != nil {
		t.Fatal(err)
	}
	if sim.OK != wantOK || !reflect.DeepEqual(sim.Relation, wantRel) {
		t.Fatal("engine.Simulate differs from Simulate")
	}

	isoP := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 1, Seed: 52}, g)
	opts := gpm.IsoOptions{MaxEmbeddings: 50}
	wantVF2 := gpm.VF2(isoP, g, opts)
	gotVF2, err := eng.Enumerate(context.Background(), isoP, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVF2.Embeddings) != len(wantVF2.Embeddings) {
		t.Fatalf("VF2 embeddings: engine %d, direct %d", len(gotVF2.Embeddings), len(wantVF2.Embeddings))
	}

	opts.Algo = gpm.AlgoUllmann
	wantUll := gpm.Ullmann(isoP, g, gpm.IsoOptions{MaxEmbeddings: 50})
	gotUll, err := eng.Enumerate(context.Background(), isoP, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotUll.Embeddings) != len(wantUll.Embeddings) {
		t.Fatalf("Ullmann embeddings: engine %d, direct %d", len(gotUll.Embeddings), len(wantUll.Embeddings))
	}
}

// Engine.DualSimulate / StrongSimulate agree with the one-shot top-level
// wrappers, observe Updates (the frozen snapshot is invalidated), and
// stay safe under concurrent queries.
func TestEngineTopoSemantics(t *testing.T) {
	g := engineTestGraph(t, 60, 180, 17)
	p := gpm.GeneratePattern(gpm.PatternGenConfig{
		Nodes: 3, Edges: 3, K: 1, IsoBias: true, Seed: 99,
	}, g)
	eng := gpm.NewEngine(g)

	dual, err := eng.DualSimulate(context.Background(), p)
	if err != nil {
		t.Fatalf("DualSimulate: %v", err)
	}
	wantDual, wantOK, err := gpm.DualSimulate(p, g.Clone())
	if err != nil {
		t.Fatalf("gpm.DualSimulate: %v", err)
	}
	if dual.OK() != wantOK || !reflect.DeepEqual(dual.Relation(), relCopy(wantDual)) {
		t.Errorf("engine dual diverges from one-shot wrapper")
	}
	strong, err := eng.StrongSimulate(context.Background(), p)
	if err != nil {
		t.Fatalf("StrongSimulate: %v", err)
	}
	wantStrong, wantSOK, err := gpm.StrongSimulate(p, g.Clone())
	if err != nil {
		t.Fatalf("gpm.StrongSimulate: %v", err)
	}
	if strong.OK() != wantSOK || !reflect.DeepEqual(strong.Relation(), relCopy(wantStrong)) {
		t.Errorf("engine strong diverges from one-shot wrapper")
	}

	// Stats carry no oracle: these semantics never probe distances.
	if dual.Stats.Oracle != gpm.OracleNone || strong.Stats.Oracle != gpm.OracleNone {
		t.Errorf("topo stats report an oracle: %v / %v", dual.Stats.Oracle, strong.Stats.Oracle)
	}

	// After an Update the engine must re-freeze and recompute.
	ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{Insertions: 6, Deletions: 6, Seed: 5}, g)
	if _, err := eng.Update(ups...); err != nil {
		t.Fatalf("Update: %v", err)
	}
	dual2, err := eng.DualSimulate(context.Background(), p)
	if err != nil {
		t.Fatalf("DualSimulate after update: %v", err)
	}
	wantDual2, _, err := gpm.DualSimulate(p, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dual2.Relation(), relCopy(wantDual2)) {
		t.Errorf("post-update dual does not match recompute on the mutated graph")
	}

	// Cancellation propagates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DualSimulate(ctx, p); err == nil {
		t.Errorf("DualSimulate ignored cancelled context")
	}
	if _, err := eng.StrongSimulate(ctx, p); err == nil {
		t.Errorf("StrongSimulate ignored cancelled context")
	}
}

// Concurrent topo queries against one engine must be race-free and
// consistent (run under -race in CI).
func TestEngineTopoConcurrent(t *testing.T) {
	g := engineTestGraph(t, 50, 150, 23)
	p := gpm.GeneratePattern(gpm.PatternGenConfig{
		Nodes: 3, Edges: 3, K: 1, IsoBias: true, Seed: 7,
	}, g)
	eng := gpm.NewEngine(g, gpm.WithWorkers(4))
	ref, err := eng.StrongSimulate(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if q%2 == 0 {
					res, err := eng.StrongSimulate(context.Background(), p)
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(res.Relation(), ref.Relation()) {
						errCh <- fmt.Errorf("concurrent strong diverged")
						return
					}
				} else {
					if _, err := eng.DualSimulate(context.Background(), p); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// relCopy maps a raw relation into the append-allocated form
// Result.Relation returns, for DeepEqual comparisons.
func relCopy(rel [][]int32) [][]int32 {
	out := make([][]int32, len(rel))
	for i, l := range rel {
		out[i] = append([]int32(nil), l...)
	}
	return out
}
