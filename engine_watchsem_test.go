package gpm_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gpm"
)

// watchSemGraph is a labeled graph with enough structure for the three
// semantics to differ: a 6-cycle dual-matches a triangle pattern that it
// does not strongly match, plus a genuine triangle.
func watchSemGraph() *gpm.Graph {
	g := gpm.NewGraph(9)
	labels := []string{"A", "B", "C"}
	for i := 0; i < 9; i++ {
		g.SetAttr(i, gpm.Attrs{"label": gpm.Str(labels[i%3])})
	}
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
	}
	g.AddEdge(6, 7)
	g.AddEdge(7, 8)
	g.AddEdge(8, 6)
	return g
}

func trianglePattern() *gpm.Pattern {
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	b := p.AddNode(gpm.Label("B"))
	c := p.AddNode(gpm.Label("C"))
	p.MustAddEdge(a, b, 1)
	p.MustAddEdge(b, c, 1)
	p.MustAddEdge(c, a, 1)
	return p
}

// Every semantics watcher must track its recompute counterpart exactly
// through a stream of updates that breaks and re-forms both the cycle
// and the triangle.
func TestWatchSemanticsTrackRecompute(t *testing.T) {
	ctx := context.Background()
	g := watchSemGraph()
	p := trianglePattern()
	eng := gpm.NewEngine(g, gpm.WithWorkers(2))

	ws, err := eng.WatchSim(p)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := eng.WatchDual(p)
	if err != nil {
		t.Fatal(err)
	}
	wst, err := eng.WatchStrong(p)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	defer wd.Close()
	defer wst.Close()

	batches := [][]gpm.Update{
		{gpm.DeleteEdge(5, 0)},                       // break the 6-cycle
		{gpm.DeleteEdge(8, 6)},                       // break the triangle
		{gpm.InsertEdge(8, 6), gpm.InsertEdge(5, 0)}, // restore both
		{gpm.InsertEdge(2, 0)},                       // chord: a second triangle 0-1-2
		{gpm.DeleteEdge(2, 0), gpm.DeleteEdge(0, 1)},
	}
	watchers := map[gpm.RelSemantics]*gpm.Watcher{gpm.RelSim: ws, gpm.RelDual: wd, gpm.RelStrong: wst}
	check := func(step int) {
		t.Helper()
		for sem, w := range watchers {
			res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: sem, Pattern: p})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(w.Relation()), fmt.Sprint(res.Relation); got != want || w.OK() != res.OK {
				t.Errorf("step %d: %v watcher diverged: %s ok=%v vs %s ok=%v", step, sem, got, w.OK(), want, res.OK)
			}
		}
	}
	check(-1)
	for i, batch := range batches {
		deltas, err := eng.Update(batch...)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(deltas) != 3 {
			t.Fatalf("batch %d: got %d watcher deltas, want 3", i, len(deltas))
		}
		check(i)
	}
}

// Semantics watchers must not force (or pin) the O(|V|²) dynamic matrix,
// and watcher reads must be safe concurrently with queries and updates.
func TestWatchSemanticsConcurrent(t *testing.T) {
	g := watchSemGraph()
	p := trianglePattern()
	eng := gpm.NewEngine(g)
	w, err := eng.WatchDual(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.Relation()
				w.OK()
				w.Pairs()
				if _, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: p}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		if _, err := eng.Update(gpm.DeleteEdge(5, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Update(gpm.InsertEdge(5, 0)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	w.Close()
}

// Bounds-carrying and colored patterns must be rejected by the
// edge-to-edge watchers with a clear error, and bounds-carrying ones by
// the edge-to-edge queries too, even on an auto engine whose bounded
// Match runs the same oracle-less kernel.
func TestWatchSemanticsRejectsBounds(t *testing.T) {
	g := watchSemGraph()
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	b := p.AddNode(gpm.Label("B"))
	p.MustAddEdge(a, b, 2)
	eng := gpm.NewEngine(g)
	if _, err := eng.WatchSim(p); err == nil {
		t.Error("WatchSim accepted a bound-2 pattern")
	}
	if _, err := eng.WatchDual(p); err == nil {
		t.Error("WatchDual accepted a bound-2 pattern")
	}
	if _, err := eng.WatchStrong(p); err == nil {
		t.Error("WatchStrong accepted a bound-2 pattern")
	}
	auto := gpm.NewEngine(g, gpm.WithAutoOracle())
	ctx := context.Background()
	for _, sem := range []gpm.RelSemantics{gpm.RelSim, gpm.RelDual, gpm.RelStrong} {
		if _, err := auto.RelationQuery(ctx, gpm.RelationQuery{Semantics: sem, Pattern: p}); err == nil {
			t.Errorf("%v accepted a bound-2 pattern", sem)
		}
	}
}

// Mixed registries: a bounded watcher and a dual watcher share one
// Update write path; closing the bounded watcher while the dual watcher
// stays open must keep maintaining the dual relation.
func TestWatchMixedRegistry(t *testing.T) {
	ctx := context.Background()
	g := watchSemGraph()
	p := trianglePattern()
	eng := gpm.NewEngine(g)
	wb, err := eng.Watch(p)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := eng.WatchDual(p)
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Close()
	if deltas, err := eng.Update(gpm.DeleteEdge(5, 0)); err != nil || len(deltas) != 2 {
		t.Fatalf("Update with mixed watchers: deltas=%d err=%v", len(deltas), err)
	}
	wb.Close()
	if _, err := eng.Update(gpm.InsertEdge(5, 0)); err != nil {
		t.Fatal(err)
	}
	dual, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(wd.Relation()), fmt.Sprint(dual.Relation); got != want {
		t.Errorf("dual watcher diverged after bounded watcher closed: %s vs %s", got, want)
	}
}
