package simulation

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

func labeled(labels ...string) *graph.Graph {
	g := graph.New(0)
	for _, l := range labels {
		g.AddNode(graph.Attrs{"label": value.Str(l)})
	}
	return g
}

// run is RunFrozen over a fresh snapshot of g.
func run(p *pattern.Pattern, g *graph.Graph) ([][]int32, bool, error) {
	return RunFrozen(context.Background(), p, g.Freeze())
}

func relEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestSimpleEdge(t *testing.T) {
	// Pattern A->B over data A->B, A->C: A matches only the A with a B child.
	g := labeled("A", "B", "A", "C")
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	p.MustAddEdge(a, b, 1)
	rel, ok, err := run(p, g)
	if err != nil || !ok {
		t.Fatalf("Run: ok=%v err=%v", ok, err)
	}
	if len(rel[a]) != 1 || rel[a][0] != 0 {
		t.Errorf("sim(A) = %v, want [0]", rel[a])
	}
	if len(rel[b]) != 1 || rel[b][0] != 1 {
		t.Errorf("sim(B) = %v, want [1]", rel[b])
	}
}

func TestNoMatch(t *testing.T) {
	g := labeled("A", "C")
	g.AddEdge(0, 1)
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	p.MustAddEdge(a, b, 1)
	rel, ok, err := run(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("should not match")
	}
	if len(rel[a]) != 0 || len(rel[b]) != 0 {
		t.Errorf("rel = %v", rel)
	}
}

func TestCascadingRemoval(t *testing.T) {
	// Chain pattern A->B->C; data has A->B but that B lacks a C child, so
	// everything unravels.
	g := labeled("A", "B", "C", "B")
	g.AddEdge(0, 1) // A -> B (no C child)
	g.AddEdge(3, 2) // other B -> C, but no A points to it
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	c := p.AddNode(pattern.Label("C"))
	p.MustAddEdge(a, b, 1)
	p.MustAddEdge(b, c, 1)
	rel, ok, _ := run(p, g)
	if ok {
		t.Error("should fail: no A has a B-with-C child")
	}
	if len(rel[a]) != 0 {
		t.Errorf("sim(A) = %v", rel[a])
	}
	// B=3 survives (has C child); C=2 survives.
	if len(rel[b]) != 1 || rel[b][0] != 3 {
		t.Errorf("sim(B) = %v", rel[b])
	}
	if len(rel[c]) != 1 || rel[c][0] != 2 {
		t.Errorf("sim(C) = %v", rel[c])
	}
}

func TestCyclicPatternOnCyclicData(t *testing.T) {
	// Pattern A->B->A over data cycle A->B->A.
	g := labeled("A", "B")
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	p.MustAddEdge(a, b, 1)
	p.MustAddEdge(b, a, 1)
	rel, ok, _ := run(p, g)
	if !ok || len(rel[a]) != 1 || len(rel[b]) != 1 {
		t.Errorf("cycle sim failed: %v ok=%v", rel, ok)
	}
}

func TestRejectsBoundedPattern(t *testing.T) {
	p := pattern.New()
	p.AddNode(nil)
	p.AddNode(nil)
	p.MustAddEdge(0, 1, 2)
	if _, _, err := run(p, graph.New(1)); err == nil {
		t.Error("bound-2 pattern accepted")
	}
	if _, _, err := RunNaive(p, graph.New(1).Freeze()); err == nil {
		t.Error("naive accepted bound-2 pattern")
	}
}

func TestColoredSimulation(t *testing.T) {
	// Two As: one friend-linked to a B, one only work-linked. The colored
	// pattern edge constrains the SOURCE side: only the friend-linked A
	// simulates pattern-A. (Pattern-B has no out-edges, so both Bs stay —
	// simulation imposes only downstream obligations.)
	g := labeled("A", "A", "B", "B")
	g.AddColoredEdge(0, 2, "friend")
	g.AddColoredEdge(1, 3, "work")
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	if _, err := p.AddColoredEdge(a, b, 1, "friend"); err != nil {
		t.Fatal(err)
	}
	rel, ok, err := run(p, g)
	if err != nil || !ok {
		t.Fatalf("colored run: %v %v", ok, err)
	}
	if len(rel[a]) != 1 || rel[a][0] != 0 {
		t.Errorf("sim(A) = %v, want only the friend-linked A", rel[a])
	}
	if len(rel[b]) != 2 {
		t.Errorf("sim(B) = %v, want both Bs (no out-edge obligations)", rel[b])
	}
	// Naive agrees.
	nRel, nOK, err := RunNaive(p, g.Freeze())
	if err != nil || nOK != ok || !relEqual(rel, nRel) {
		t.Errorf("naive disagrees: %v %v %v", nRel, nOK, err)
	}
}

func randomLabeledGraph(r *rand.Rand, n, m, labels int) *graph.Graph {
	if m > n*n {
		m = n * n
	}
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Attrs{"label": value.Str(string(rune('A' + r.Intn(labels))))})
	}
	for g.M() < m {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

func randomBoundOnePattern(r *rand.Rand, np, me, labels int) *pattern.Pattern {
	p := pattern.New()
	for i := 0; i < np; i++ {
		p.AddNode(pattern.Label(string(rune('A' + r.Intn(labels)))))
	}
	for tries := 0; tries < 4*me && p.EdgeCount() < me; tries++ {
		p.AddEdge(r.Intn(np), r.Intn(np), 1) // duplicates rejected silently
	}
	return p
}

// Property: the worklist algorithm agrees with the naive fixpoint.
func TestRunMatchesNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLabeledGraph(r, 1+r.Intn(14), r.Intn(30), 3)
		p := randomBoundOnePattern(r, 1+r.Intn(5), r.Intn(7), 3)
		r1, ok1, err1 := run(p, g)
		r2, ok2, err2 := RunNaive(p, g.Freeze())
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return ok1 == ok2 && relEqual(r1, r2)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the result is a simulation — every surviving pair has a
// witness for every pattern edge.
func TestResultIsSimulation(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLabeledGraph(r, 1+r.Intn(14), r.Intn(30), 3)
		p := randomBoundOnePattern(r, 1+r.Intn(5), r.Intn(7), 3)
		rel, _, err := run(p, g)
		if err != nil {
			return true
		}
		inRel := make([]map[int32]bool, p.N())
		for u := range inRel {
			inRel[u] = map[int32]bool{}
			for _, x := range rel[u] {
				inRel[u][x] = true
			}
		}
		for u := 0; u < p.N(); u++ {
			for _, x := range rel[u] {
				if !p.Pred(u).Match(g.Attr(int(x))) {
					return false
				}
				for _, eid := range p.Out(u) {
					e := p.EdgeAt(int(eid))
					found := false
					for _, y := range g.Out(int(x)) {
						if inRel[e.To][y] {
							found = true
							break
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
