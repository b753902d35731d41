package gpm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// relQueryGraph builds a graph with enough attribute and edge variety
// that the four semantics produce different relations.
func relQueryGraph() *Graph {
	g := NewGraph(10)
	for i := 0; i < 10; i++ {
		label := "A"
		if i%3 == 1 {
			label = "B"
		}
		g.SetAttr(i, Attrs{"label": Str(label), "rank": Int(int64(i))})
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddColoredEdge(4, 5, "c")
	g.AddEdge(5, 6)
	g.AddEdge(6, 0)
	g.AddEdge(2, 7)
	g.AddEdge(7, 8)
	g.AddEdge(8, 9)
	g.AddEdge(9, 2)
	g.AddEdge(1, 4)
	return g
}

// relQueryPattern is an all-bounds-one pattern valid under every
// semantics.
func relQueryPattern() *Pattern {
	p := NewPattern()
	a := p.AddNode(Label("A"))
	b := p.AddNode(Label("B"))
	c := p.AddNode(Label("A"))
	p.MustAddEdge(a, b, 1)
	p.MustAddEdge(b, c, 1)
	return p
}

// TestGenerationCountsEffectiveUpdates pins the Generation contract that
// the server cache keys on: fresh engines start at zero, net-no-op
// batches leave the token alone (same conservatism as the snapshot
// caches, see TestUpdateNoopKeepsCaches), and every effective batch bumps
// it exactly once.
func TestGenerationCountsEffectiveUpdates(t *testing.T) {
	e, _ := noopTestEngine(t)
	if got := e.Generation(); got != 0 {
		t.Fatalf("fresh engine Generation() = %d, want 0", got)
	}
	if _, err := e.Update(); err != nil {
		t.Fatal(err)
	}
	if got := e.Generation(); got != 0 {
		t.Errorf("empty Update batch bumped Generation to %d", got)
	}
	if _, err := e.Update(InsertEdge(0, 2), DeleteEdge(0, 2)); err != nil {
		t.Fatal(err)
	}
	if got := e.Generation(); got != 0 {
		t.Errorf("insert-then-delete Update batch bumped Generation to %d", got)
	}
	if _, err := e.Update(InsertEdge(0, 3)); err != nil {
		t.Fatal(err)
	}
	if got := e.Generation(); got != 1 {
		t.Errorf("effective Update batch left Generation at %d, want 1", got)
	}
	// Delete-then-reinsert is conservatively a change (colors may differ),
	// matching the snapshot invalidation path.
	if _, err := e.Update(DeleteEdge(0, 1), InsertEdge(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := e.Generation(); got != 2 {
		t.Errorf("delete-then-reinsert batch left Generation at %d, want 2", got)
	}
}

// TestRelationQueryMatchesPublicMethods pins that RelationQuery returns,
// semantics by semantics, exactly what the other public paths to the
// same relation hold — a freshly opened watcher of that semantics and,
// for match, a MatchBatch lane — and that it reports the generation it
// observed.
func TestRelationQueryMatchesPublicMethods(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(relQueryGraph())
	p := relQueryPattern()
	if _, err := e.Update(InsertEdge(0, 5)); err != nil { // non-zero generation
		t.Fatal(err)
	}
	watch := map[RelSemantics]func(*Pattern) (*Watcher, error){
		RelMatch: e.Watch, RelSim: e.WatchSim, RelDual: e.WatchDual, RelStrong: e.WatchStrong,
	}
	for sem, open := range watch {
		t.Run(sem.String(), func(t *testing.T) {
			got, err := e.RelationQuery(ctx, RelationQuery{Semantics: sem, Pattern: p})
			if err != nil {
				t.Fatal(err)
			}
			if got.Generation != e.Generation() {
				t.Errorf("RelationQuery observed generation %d, engine reports %d", got.Generation, e.Generation())
			}
			w, err := open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if got.OK != w.OK() {
				t.Fatalf("OK = %v via RelationQuery, %v via the watcher", got.OK, w.OK())
			}
			if err := relationsEqual(got.Relation, w.Relation()); err != nil {
				t.Fatalf("relation diverged from the watcher's: %v", err)
			}
			if sem != RelMatch {
				return
			}
			batch, err := e.MatchBatch(ctx, []*Pattern{p})
			if err != nil {
				t.Fatal(err)
			}
			if batch[0].OK != got.OK || batch[0].Generation != got.Generation {
				t.Errorf("MatchBatch OK/generation %v/%d, RelationQuery %v/%d", batch[0].OK, batch[0].Generation, got.OK, got.Generation)
			}
			if err := relationsEqual(batch[0].Relation, got.Relation); err != nil {
				t.Errorf("relation diverged from MatchBatch: %v", err)
			}
		})
	}
}

// TestRelationQuerySimStatsEqualMatch: sim and dual run the match kernel
// without an oracle, so they report its work counters. On an
// all-bounds-one pattern sim does exactly match's work — equal
// InitialPairs and Removals — and dual starts from the same candidates
// and removes at least as many.
func TestRelationQuerySimStatsEqualMatch(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(relQueryGraph())
	p := relQueryPattern()
	stats := map[RelSemantics]MatchStats{}
	for _, sem := range []RelSemantics{RelMatch, RelSim, RelDual} {
		res, err := e.RelationQuery(ctx, RelationQuery{Semantics: sem, Pattern: p})
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		stats[sem] = res.Stats
	}
	m, s, d := stats[RelMatch], stats[RelSim], stats[RelDual]
	if s.InitialPairs != m.InitialPairs || s.Removals != m.Removals {
		t.Errorf("sim pairs/removals %d/%d, match %d/%d", s.InitialPairs, s.Removals, m.InitialPairs, m.Removals)
	}
	if d.InitialPairs != m.InitialPairs || d.Removals < s.Removals {
		t.Errorf("dual pairs/removals %d/%d, sim %d/%d", d.InitialPairs, d.Removals, s.InitialPairs, s.Removals)
	}
	for sem, st := range map[RelSemantics]MatchStats{RelSim: s, RelDual: d} {
		if st.Oracle != OracleNone || st.InitialPairs == 0 || st.Removals == 0 || st.SweepScans == 0 || st.OracleQueries != 0 {
			t.Errorf("%v stats %+v: want no oracle, no probes, and nonzero pairs, removals and scans", sem, st)
		}
	}
}

// TestRelationQuerySeededEquivalence: seeding with any superset of the
// true relation — the exact relation itself, the full vertex set, or the
// relation plus random noise — must return bit-identical answers to the
// unseeded query, for every seedable semantics.
func TestRelationQuerySeededEquivalence(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(relQueryGraph())
	p := relQueryPattern()
	n := relQueryGraph().N()
	rng := rand.New(rand.NewSource(7))

	for _, sem := range []RelSemantics{RelMatch, RelSim, RelDual} {
		t.Run(sem.String(), func(t *testing.T) {
			base, err := e.RelationQuery(ctx, RelationQuery{Semantics: sem, Pattern: p})
			if err != nil {
				t.Fatal(err)
			}
			full := make([][]int32, p.N())
			for u := range full {
				for x := 0; x < n; x++ {
					full[u] = append(full[u], int32(x))
				}
			}
			noisy := make([][]int32, p.N())
			for u := range noisy {
				noisy[u] = append(noisy[u], base.Relation[u]...)
				for k := 0; k < 5; k++ {
					// Duplicates, out-of-range and unsorted entries must all
					// be absorbed by seed normalisation.
					noisy[u] = append(noisy[u], int32(rng.Intn(n+4)-2))
				}
			}
			for name, seed := range map[string][][]int32{
				"exact": base.Relation,
				"full":  full,
				"noisy": noisy,
			} {
				got, err := e.RelationQuery(ctx, RelationQuery{Semantics: sem, Pattern: p, Seed: seed})
				if err != nil {
					t.Fatalf("%s seed: %v", name, err)
				}
				if got.OK != base.OK {
					t.Errorf("%s seed: OK = %v, unseeded %v", name, got.OK, base.OK)
				}
				if err := relationsEqual(got.Relation, base.Relation); err != nil {
					t.Errorf("%s seed diverged from unseeded answer: %v", name, err)
				}
			}
		})
	}
}

// TestRelationQuerySeedErrors pins the two rejection paths: strong
// simulation refuses seeds, and a seed must have one row per pattern
// node.
func TestRelationQuerySeedErrors(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(relQueryGraph())
	p := relQueryPattern()
	seed := make([][]int32, p.N())
	if _, err := e.RelationQuery(ctx, RelationQuery{Semantics: RelStrong, Pattern: p, Seed: seed}); err == nil {
		t.Error("strong simulation accepted a seeded query")
	}
	for _, sem := range []RelSemantics{RelMatch, RelSim, RelDual} {
		if _, err := e.RelationQuery(ctx, RelationQuery{Semantics: sem, Pattern: p, Seed: make([][]int32, p.N()+1)}); err == nil {
			t.Errorf("%v accepted a seed with the wrong row count", sem)
		}
	}
}

func relationsEqual(a, b [][]int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts %d vs %d", len(a), len(b))
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return fmt.Errorf("node %d: %d vs %d matches", u, len(a[u]), len(b[u]))
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				return fmt.Errorf("node %d: entry %d is %d vs %d", u, i, a[u][i], b[u][i])
			}
		}
	}
	return nil
}
