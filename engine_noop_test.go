package gpm

import (
	"context"
	"testing"
)

// noopTestEngine builds a small engine and forces its lazy caches into
// existence.
func noopTestEngine(t *testing.T, opts ...EngineOption) (*Engine, *Pattern) {
	t.Helper()
	g := NewGraph(4)
	for i := 0; i < 4; i++ {
		g.SetAttr(i, Attrs{"label": Str("A")})
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	p := NewPattern()
	a := p.AddNode(Label("A"))
	b := p.AddNode(Label("A"))
	p.MustAddEdge(a, b, 1)
	e := NewEngine(g, opts...)
	if _, err := e.RelationQuery(context.Background(), RelationQuery{Semantics: RelMatch, Pattern: p}); err != nil {
		t.Fatal(err)
	}
	return e, p
}

// Regression: Update used to drop the cached frozen snapshot wholesale
// even when the batch had no net structural effect — an empty batch, or
// an insert-then-delete of the same edge. No-op batches must keep it so
// the next query skips the re-freeze.
func TestUpdateNoopKeepsCaches(t *testing.T) {
	e, _ := noopTestEngine(t)
	fz := e.fz.Load()
	if fz == nil {
		t.Fatal("Match did not populate the frozen snapshot")
	}

	if _, err := e.Update(); err != nil {
		t.Fatal(err)
	}
	if e.fz.Load() != fz {
		t.Error("empty Update batch dropped the frozen snapshot")
	}

	if _, err := e.Update(InsertEdge(0, 2), DeleteEdge(0, 2)); err != nil {
		t.Fatal(err)
	}
	if e.fz.Load() != fz {
		t.Error("insert-then-delete Update batch dropped the frozen snapshot")
	}

	// A real change must still invalidate.
	if _, err := e.Update(InsertEdge(0, 3)); err != nil {
		t.Fatal(err)
	}
	if e.fz.Load() == fz {
		t.Error("net-effective Update batch kept a stale frozen snapshot")
	}
}

// TestUpdateInvalidationUniform audits every WithOracle kind the same
// way: after a net-effective Update, queries (plain and colored) must
// agree with a fresh engine over the mutated graph — no cache may serve
// a stale graph. This pins the invalidation in Engine.Update against the
// cache set growing out of sync with it.
func TestUpdateInvalidationUniform(t *testing.T) {
	kinds := []OracleKind{OracleMatrix, OracleBFS, OracleTwoHop, OraclePLL}
	build := func() *Graph {
		g := NewGraph(6)
		for i := 0; i < 6; i++ {
			g.SetAttr(i, Attrs{"label": Str("A")})
		}
		g.AddColoredEdge(0, 1, "c")
		g.AddColoredEdge(1, 2, "c")
		g.AddEdge(2, 3)
		g.AddEdge(3, 4)
		return g
	}
	plain := NewPattern()
	pa := plain.AddNode(Label("A"))
	pb := plain.AddNode(Label("A"))
	plain.MustAddEdge(pa, pb, 3)
	colored := NewPattern()
	ca := colored.AddNode(Label("A"))
	cb := colored.AddNode(Label("A"))
	if _, err := colored.AddColoredEdge(ca, cb, 2, "c"); err != nil {
		t.Fatal(err)
	}
	for _, kind := range kinds {
		e := NewEngine(build(), WithOracle(kind))
		// Populate every lazy cache the engine owns.
		for _, p := range []*Pattern{plain, colored} {
			if _, err := e.RelationQuery(context.Background(), RelationQuery{Semantics: RelMatch, Pattern: p}); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
		if _, err := e.Update(InsertEdge(4, 5), InsertEdge(5, 0), DeleteEdge(1, 2)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		fresh := NewEngine(build(), WithOracle(kind))
		if _, err := fresh.Update(InsertEdge(4, 5), InsertEdge(5, 0), DeleteEdge(1, 2)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for name, p := range map[string]*Pattern{"plain": plain, "colored": colored} {
			got, err := e.RelationQuery(context.Background(), RelationQuery{Semantics: RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, name, err)
			}
			want, err := fresh.RelationQuery(context.Background(), RelationQuery{Semantics: RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, name, err)
			}
			if got.OK != want.OK {
				t.Errorf("%v/%s: stale OK %v, fresh %v", kind, name, got.OK, want.OK)
				continue
			}
			for u := 0; u < p.N(); u++ {
				gm, wm := got.Relation[u], want.Relation[u]
				if len(gm) != len(wm) {
					t.Errorf("%v/%s: node %d relation diverged after Update", kind, name, u)
					break
				}
				for i := range gm {
					if gm[i] != wm[i] {
						t.Errorf("%v/%s: node %d relation diverged after Update", kind, name, u)
						break
					}
				}
			}
		}
	}
}

// A delete-then-reinsert of the same edge is conservatively treated as a
// change: the original edge may have carried a color the re-inserted one
// lost, so the frozen snapshot (which copies colors) must be rebuilt.
func TestUpdateDeleteReinsertInvalidates(t *testing.T) {
	e, _ := noopTestEngine(t)
	fz := e.fz.Load()
	if _, err := e.Update(DeleteEdge(0, 1), InsertEdge(0, 1)); err != nil {
		t.Fatal(err)
	}
	if e.fz.Load() == fz {
		t.Error("delete-then-reinsert batch kept a possibly stale frozen snapshot")
	}
}
