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
	"gpm/internal/core"
	"gpm/internal/simulation"
	"gpm/internal/subiso"
	"gpm/internal/topo"
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

// TestEngineMatchEquivalence: under every WithOracle kind the engine
// produces the same relation as the paper's Fig. 4 over the distance
// matrix (core.Match).
func TestEngineMatchEquivalence(t *testing.T) {
	g := engineTestGraph(t, 300, 1200, 11)
	patterns := engineTestPatterns(t, g, 6)
	kinds := []gpm.OracleKind{gpm.OracleMatrix, gpm.OracleBFS, gpm.OracleTwoHop, gpm.OraclePLL, gpm.OracleAuto}
	for _, kind := range kinds {
		eng := gpm.NewEngine(g, gpm.WithOracle(kind))
		for i, p := range patterns {
			want, err := core.Match(p, g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("kind %v pattern %d: %v", kind, i, err)
			}
			if got.OK != want.OK() || !reflect.DeepEqual(got.Relation, want.Relation()) {
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
// colored patterns sweep on every query, whatever the oracle.
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
		wantPlain, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: plain})
		if err != nil {
			t.Fatal(err)
		}
		wantColored, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: colored})
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
					res, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res.Relation, want.Relation) {
						errs <- fmt.Errorf("kind %v worker %d: relation mismatch", kind, w)
						return
					}
					if _, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: boundOnePattern()}); err != nil {
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

// TestEngineAutoOracle: WithAutoOracle resolves to no oracle at every
// graph size, small or large, sparse or dense; the engine's library
// default stays the paper's matrix configuration.
func TestEngineAutoOracle(t *testing.T) {
	for _, n := range []int{100, 4096} {
		if k := gpm.NewEngine(gpm.NewGraph(n), gpm.WithAutoOracle()).OracleKind(); k != gpm.OracleNone {
			t.Errorf("%d nodes: auto picked %v, want none", n, k)
		}
	}

	largeSparse := gpm.NewGraph(5000)
	for i := 0; i < 4999; i++ {
		largeSparse.AddEdge(i, i+1)
	}
	if k := gpm.NewEngine(largeSparse, gpm.WithAutoOracle()).OracleKind(); k != gpm.OracleNone {
		t.Errorf("large sparse: auto picked %v, want none", k)
	}

	largeDense := gpm.NewGraph(5000)
	for off := 1; off <= 3; off++ {
		for i := 0; i < 5000; i++ {
			largeDense.AddEdge(i, (i+off)%5000)
		}
	}
	if k := gpm.NewEngine(largeDense, gpm.WithAutoOracle()).OracleKind(); k != gpm.OracleNone {
		t.Errorf("large dense: auto picked %v, want none", k)
	}

	// So does the default (no options), and every explicit kind.
	for _, opts := range [][]gpm.EngineOption{nil,
		{gpm.WithOracle(gpm.OracleMatrix)}, {gpm.WithOracle(gpm.OracleBFS)},
		{gpm.WithOracle(gpm.OracleTwoHop)}, {gpm.WithOracle(gpm.OraclePLL)}} {
		if k := gpm.NewEngine(largeDense, opts...).OracleKind(); k != gpm.OracleNone {
			t.Errorf("options %d: picked %v, want none", len(opts), k)
		}
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
	if _, err := eng.RelationQuery(cancelled, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	time.Sleep(2 * time.Millisecond) // let the deadline pass mid-setup
	if _, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}

	// Enumerate and Simulate honour cancellation too.
	if _, err := eng.Enumerate(cancelled, p, gpm.IsoOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("enumerate: err = %v, want context.Canceled", err)
	}
	if _, err := eng.RelationQuery(cancelled, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: boundOnePattern()}); !errors.Is(err, context.Canceled) {
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
			scratch, err := core.Match(w.Pattern(), eng.Graph())
			if err != nil {
				t.Fatal(err)
			}
			if w.OK() != scratch.OK() || w.Pairs() != scratch.Pairs() {
				t.Fatalf("batch %d watcher %d: |S|=%d ok=%v, scratch |S|=%d ok=%v",
					batch, i, w.Pairs(), w.OK(), scratch.Pairs(), scratch.OK())
			}
		}
		// A fresh engine query sees the maintained (post-update) matrix.
		res, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p1})
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
	res, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("should not match before inserting 1->2")
	}
	if _, err := eng.Update(gpm.InsertEdge(1, 2)); err != nil {
		t.Fatal(err)
	}
	res, err = eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
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
	eng := gpm.NewEngine(g)
	var p *gpm.Pattern
	for seed := int64(40); ; seed++ {
		p = gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 2, K: 2, Seed: seed}, g)
		if res, err := core.Match(p, g); err == nil && res.OK() {
			break
		}
	}

	first, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Oracle != gpm.OracleNone || first.Stats.OracleBuild != 0 || first.Stats.OracleQueries != 0 {
		t.Errorf("stats %+v, want no oracle, no build and no probe", first.Stats)
	}
	// Sweeps are work too: the engine's snapshot answers every witness
	// question.
	if first.Stats.SweepScans == 0 || first.Stats.InitialPairs == 0 {
		t.Errorf("work counters empty: %+v", first.Stats)
	}

	second, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Stats, second.Stats
	if a.SweepScans != b.SweepScans || a.Removals != b.Removals || a.InitialPairs != b.InitialPairs {
		t.Errorf("second query: work counters %+v, first %+v", b, a)
	}

	rg := eng.ResultGraph(p, first)
	if n, _ := rg.Size(); n == 0 {
		t.Error("result graph of an OK match should be nonempty")
	}
}

// TestEngineSimulateEnumerate: parity with the internal per-call entry
// points plus algorithm selection through IsoOptions.Algo.
func TestEngineSimulateEnumerate(t *testing.T) {
	g := engineTestGraph(t, 150, 600, 31)
	eng := gpm.NewEngine(g)

	simP := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 2, K: 1, Seed: 51}, g)
	wantRel, wantOK, err := simulation.RunFrozen(context.Background(), simP, g.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: simP})
	if err != nil {
		t.Fatal(err)
	}
	if sim.OK != wantOK || !reflect.DeepEqual(sim.Relation, wantRel) {
		t.Fatal("the sim query differs from simulation.RunFrozen")
	}

	isoP := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 1, Seed: 52}, g)
	opts := gpm.IsoOptions{MaxEmbeddings: 50}
	wantVF2 := subiso.VF2(isoP, g, opts)
	gotVF2, err := eng.Enumerate(context.Background(), isoP, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVF2.Embeddings) != len(wantVF2.Embeddings) {
		t.Fatalf("VF2 embeddings: engine %d, direct %d", len(gotVF2.Embeddings), len(wantVF2.Embeddings))
	}

	opts.Algo = gpm.AlgoUllmann
	wantUll := subiso.Ullmann(isoP, g, gpm.IsoOptions{MaxEmbeddings: 50})
	gotUll, err := eng.Enumerate(context.Background(), isoP, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotUll.Embeddings) != len(wantUll.Embeddings) {
		t.Fatalf("Ullmann embeddings: engine %d, direct %d", len(gotUll.Embeddings), len(wantUll.Embeddings))
	}
}

// Dual and strong relation queries agree with the one-shot kernels over
// a fresh snapshot, observe Updates (the frozen snapshot is invalidated),
// and honour cancellation.
func TestEngineTopoSemantics(t *testing.T) {
	g := engineTestGraph(t, 60, 180, 17)
	p := gpm.GeneratePattern(gpm.PatternGenConfig{
		Nodes: 3, Edges: 3, K: 1, IsoBias: true, Seed: 99,
	}, g)
	eng := gpm.NewEngine(g)

	dual, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
	if err != nil {
		t.Fatalf("dual: %v", err)
	}
	wantDual, wantOK, err := topo.DualSim(context.Background(), p, g.Freeze(), topo.Options{})
	if err != nil {
		t.Fatalf("topo.DualSim: %v", err)
	}
	if dual.OK != wantOK || !reflect.DeepEqual(dual.Relation, wantDual) {
		t.Errorf("engine dual diverges from topo.DualSim")
	}
	strong, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
	if err != nil {
		t.Fatalf("strong: %v", err)
	}
	wantStrong, wantSOK, err := topo.StrongSim(context.Background(), p, g.Freeze(), topo.Options{})
	if err != nil {
		t.Fatalf("topo.StrongSim: %v", err)
	}
	if strong.OK != wantSOK || !reflect.DeepEqual(strong.Relation, wantStrong) {
		t.Errorf("engine strong diverges from topo.StrongSim")
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
	dual2, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
	if err != nil {
		t.Fatalf("dual after update: %v", err)
	}
	wantDual2, _, err := topo.DualSim(context.Background(), p, g.Freeze(), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dual2.Relation, wantDual2) {
		t.Errorf("post-update dual does not match recompute on the mutated graph")
	}

	// Cancellation propagates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sem := range []gpm.RelSemantics{gpm.RelDual, gpm.RelStrong} {
		if _, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: sem, Pattern: p}); err == nil {
			t.Errorf("%v ignored cancelled context", sem)
		}
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
	ref, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
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
					res, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(res.Relation, ref.Relation) {
						errCh <- fmt.Errorf("concurrent strong diverged")
						return
					}
				} else {
					if _, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p}); err != nil {
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
