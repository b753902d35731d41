package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"gpm/internal/fixtures"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

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

// TestPaperFixtures checks every encoded paper example against the exact
// relation stated in Example 2.2, under all three oracle variants.
func TestPaperFixtures(t *testing.T) {
	for _, c := range fixtures.All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			oracles := map[string]DistOracle{
				"matrix": BuildMatrixOracle(c.G),
				"bfs":    NewBFSOracle(c.G),
				"2hop":   BuildTwoHopOracle(c.G),
			}
			for name, o := range oracles {
				res, err := MatchWithOracle(c.P, c.G, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.OK() != c.Matches {
					t.Fatalf("%s: OK = %v, want %v", name, res.OK(), c.Matches)
				}
				if c.Matches && !relEqual(res.Relation(), c.Want) {
					t.Errorf("%s: relation mismatch\n got %v\nwant %v", name, res.Relation(), c.Want)
				}
			}
		})
	}
}

func TestDrugRingDetails(t *testing.T) {
	c := fixtures.DrugRing()
	res, err := Match(c.P, c.G)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal("drug ring should match")
	}
	// AM and S both map to the secretary node (bijections cannot do this:
	// Example 1.1 point 1).
	sec := res.Mat(2)[0]
	if !res.Contains(1, sec) {
		t.Error("secretary should match both AM and S")
	}
	// AM maps to multiple nodes (point 2).
	if len(res.Mat(1)) != 3 {
		t.Errorf("AM matches %d nodes, want 3", len(res.Mat(1)))
	}
	// FW matches all 9 workers (point 3: 3-hop supervision chains).
	if len(res.Mat(3)) != 9 {
		t.Errorf("FW matches %d nodes, want 9", len(res.Mat(3)))
	}
	if res.Pairs() != 1+3+1+9 {
		t.Errorf("Pairs = %d", res.Pairs())
	}
	if res.MatchedNodes() != 4 {
		t.Errorf("MatchedNodes = %d", res.MatchedNodes())
	}
}

func TestCollaborationNoMatchDetails(t *testing.T) {
	c := fixtures.CollaborationNoMatch()
	res, err := Match(c.P, c.G)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("G3 should not match P2")
	}
	// CS has no candidates left (the appendix walks through this).
	if len(res.Mat(0)) != 0 {
		t.Errorf("mat(CS) = %v, want empty", res.Mat(0))
	}
}

func TestResultAccessors(t *testing.T) {
	c := fixtures.SocialMatching()
	res, _ := Match(c.P, c.G)
	if res.Pattern() != c.P || res.Graph() != c.G {
		t.Error("accessors wrong")
	}
	if !res.Contains(fixtures.P1SE, fixtures.G1HRSE) {
		t.Error("Contains misses a pair")
	}
	if res.Contains(fixtures.P1SE, fixtures.G1HR) {
		t.Error("Contains reports a non-pair")
	}
	if res.String() == "" {
		t.Error("String empty")
	}
	rel := res.Relation()
	rel[0] = nil // must not alias internal state
	if len(res.Mat(0)) == 0 {
		t.Error("Relation aliases internal state")
	}
}

func TestInvalidPattern(t *testing.T) {
	p := pattern.New() // zero nodes
	if _, err := Match(p, graph.New(1)); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := MatchNaive(p, graph.New(1), NewBFSOracle(graph.New(1))); err == nil {
		t.Error("naive accepted empty pattern")
	}
}

// A k = 1 coloured constraint keeps no witness matrix, so its removals
// walk arcs, and only arcs of its colour count: when z, reached from x′
// by a "b" arc, leaves the relation, x′ keeps its "a" witness z2. Plain
// and dual simulation run in sweep mode; Fig. 4's MatchWithOracle walks
// the coloured constraint's arcs too.
func TestOneHopRemovalFiltersColour(t *testing.T) {
	g := graph.New(5)
	for i, l := range []string{"A", "B", "B", "C", "D"} {
		g.SetAttr(i, value.Tuple{"label": value.Str(l)})
	}
	g.AddColoredEdge(0, 1, "b") // x′ → z
	g.AddColoredEdge(0, 2, "a") // x′ → z2
	g.AddEdge(2, 3)
	g.AddEdge(1, 4) // z has a successor, but no C one
	p := pattern.New()
	u, v, w := p.AddNode(pattern.Label("A")), p.AddNode(pattern.Label("B")), p.AddNode(pattern.Label("C"))
	if _, err := p.AddColoredEdge(u, v, 1, "a"); err != nil {
		t.Fatal(err)
	}
	p.MustAddEdge(v, w, 1)
	want := [][]int32{{0}, {2}, {3}}
	f := g.Freeze()
	for _, dual := range []bool{false, true} {
		var st Stats
		res, err := MatchOpts(context.Background(), p, g, nil, &st, MatchOptions{Frozen: f, Dual: dual})
		if err != nil {
			t.Fatal(err)
		}
		if !relEqual(res.Relation(), want) || st.Removals != 1 {
			t.Errorf("dual=%v: relation %v after %d removals, want %v after 1", dual, res.Relation(), st.Removals, want)
		}
	}
	res, err := MatchWithOracle(p, g, BuildMatrixOracle(g))
	if err != nil {
		t.Fatal(err)
	}
	if !relEqual(res.Relation(), want) {
		t.Errorf("MatchWithOracle: relation %v, want %v", res.Relation(), want)
	}
}

// Dual simulation is edge-to-edge: MatchOpts refuses Dual next to a
// distance oracle.
func TestDualRefusesAnOracle(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	p := pattern.New()
	p.MustAddEdge(p.AddNode(nil), p.AddNode(nil), 1)
	f := g.Freeze()
	if _, err := MatchOpts(context.Background(), p, g, NewBFSOracleFrozen(f), nil, MatchOptions{Frozen: f, Dual: true}); err == nil {
		t.Error("Dual with an oracle accepted")
	}
}

func TestUnboundedEdge(t *testing.T) {
	// A -*-> B over a long chain: must match regardless of length.
	g := graph.New(10)
	g.SetAttr(0, graph.Attrs{"label": value.Str("A")})
	for i := 0; i+1 < 10; i++ {
		g.AddEdge(i, i+1)
	}
	g.SetAttr(9, graph.Attrs{"label": value.Str("B")})
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	p.MustAddEdge(a, b, pattern.Unbounded)
	res, _ := Match(p, g)
	if !res.OK() {
		t.Fatal("unbounded edge should match across the chain")
	}
	// With bound 8 it still matches; 9 hops needed... distance is 9.
	p2 := pattern.New()
	a2 := p2.AddNode(pattern.Label("A"))
	b2 := p2.AddNode(pattern.Label("B"))
	p2.MustAddEdge(a2, b2, 8)
	res2, _ := Match(p2, g)
	if res2.OK() {
		t.Fatal("bound 8 < dist 9 should fail")
	}
	p3 := pattern.New()
	a3 := p3.AddNode(pattern.Label("A"))
	b3 := p3.AddNode(pattern.Label("B"))
	p3.MustAddEdge(a3, b3, 9)
	res3, _ := Match(p3, g)
	if !res3.OK() {
		t.Fatal("bound 9 = dist 9 should match")
	}
}

func TestSelfPatternEdgeNeedsCycle(t *testing.T) {
	// Pattern A -2-> A: only nodes on a short cycle qualify.
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	p.MustAddEdge(a, a, 2)

	chainG := graph.New(2)
	chainG.SetAttr(0, graph.Attrs{"label": value.Str("A")})
	chainG.SetAttr(1, graph.Attrs{"label": value.Str("A")})
	chainG.AddEdge(0, 1)
	res, _ := Match(p, chainG)
	if res.OK() {
		t.Error("chain has no cycle; self-edge must fail")
	}

	cycG := graph.New(2)
	cycG.SetAttr(0, graph.Attrs{"label": value.Str("A")})
	cycG.SetAttr(1, graph.Attrs{"label": value.Str("A")})
	cycG.AddEdge(0, 1)
	cycG.AddEdge(1, 0)
	res, _ = Match(p, cycG)
	if !res.OK() || res.Pairs() != 2 {
		t.Errorf("2-cycle should match both nodes: %v", res.Relation())
	}
}

func TestColoredMatch(t *testing.T) {
	// A -2,friend-> B: only monochromatic friend paths count.
	g := graph.New(4)
	g.SetAttr(0, graph.Attrs{"label": value.Str("A")})
	g.SetAttr(3, graph.Attrs{"label": value.Str("B")})
	g.AddColoredEdge(0, 1, "friend")
	g.AddColoredEdge(1, 3, "friend") // friend path of length 2
	g.AddColoredEdge(0, 2, "work")
	g.AddColoredEdge(2, 3, "work")
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	if _, err := p.AddColoredEdge(a, b, 2, "friend"); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]DistOracle{
		"matrix": BuildMatrixOracle(g),
		"bfs":    NewBFSOracle(g),
		"2hop":   BuildTwoHopOracle(g),
	} {
		res, err := MatchWithOracle(p, g, o)
		if err != nil || !res.OK() {
			t.Fatalf("%s: colored match failed: %v %v", name, err, res)
		}
	}
	// Break the friend path: only mixed-color paths remain.
	g.RemoveEdge(1, 3)
	res, _ := Match(p, g)
	if res.OK() {
		t.Error("mixed-color path must not satisfy a colored pattern edge")
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

func randomPattern(r *rand.Rand, np, me, labels, maxBound int, allowStar bool) *pattern.Pattern {
	p := pattern.New()
	for i := 0; i < np; i++ {
		p.AddNode(pattern.Label(string(rune('A' + r.Intn(labels)))))
	}
	for tries := 0; tries < 4*me && p.EdgeCount() < me; tries++ {
		b := 1 + r.Intn(maxBound)
		if allowStar && r.Intn(4) == 0 {
			b = pattern.Unbounded
		}
		p.AddEdge(r.Intn(np), r.Intn(np), b)
	}
	return p
}

// TestMatchAgainstNaive: the counter/worklist algorithm computes exactly
// the naive greatest fixpoint, under every oracle.
func TestMatchAgainstNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLabeledGraph(r, 1+r.Intn(12), r.Intn(28), 3)
		p := randomPattern(r, 1+r.Intn(4), r.Intn(7), 3, 3, true)
		want, err := MatchNaive(p, g, BuildMatrixOracle(g))
		if err != nil {
			return false
		}
		for _, o := range []DistOracle{BuildMatrixOracle(g), NewBFSOracle(g), BuildTwoHopOracle(g)} {
			res, err := MatchWithOracle(p, g, o)
			if err != nil {
				return false
			}
			if res.OK() != want.OK() || !relEqual(res.Relation(), want.Relation()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMaximality: the result is itself a match, and re-adding any removed
// candidate pair breaks the match property — so the fixpoint is maximal.
func TestMaximality(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLabeledGraph(r, 1+r.Intn(10), r.Intn(20), 2)
		p := randomPattern(r, 1+r.Intn(3), r.Intn(5), 2, 2, false)
		o := BuildMatrixOracle(g)
		res, err := MatchWithOracle(p, g, o)
		if err != nil {
			return false
		}
		rel := res.Relation()
		if res.OK() && !IsMatch(p, g, rel, o) {
			return false
		}
		// Any candidate pair outside the relation must not extend it.
		for u := 0; u < p.N(); u++ {
			for x := int32(0); int(x) < g.N(); x++ {
				if res.Contains(u, x) || !p.Pred(u).Match(g.Attr(int(x))) {
					continue
				}
				ext := res.Relation()
				ext[u] = append(ext[u], x)
				if IsMatch(p, g, ext, o) {
					return false // would contradict maximality
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIsMatchRejectsIllFormed(t *testing.T) {
	c := fixtures.SocialMatching()
	o := BuildMatrixOracle(c.G)
	if IsMatch(c.P, c.G, [][]int32{{0}}, o) {
		t.Error("wrong arity accepted")
	}
	bad := make([][]int32, c.P.N())
	bad[0] = []int32{99}
	if IsMatch(c.P, c.G, bad, o) {
		t.Error("out-of-range node accepted")
	}
}
