package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

// naiveWalkLengths computes, by direct frontier iteration, the set of
// walk lengths 1..maxLen from u that reach v — the reference for
// walkLengths.
func naiveWalkLengths(g *graph.Graph, u, v, maxLen int, color string) map[int]bool {
	out := map[int]bool{}
	cur := map[int]bool{u: true}
	for l := 1; l <= maxLen; l++ {
		next := map[int]bool{}
		for x := range cur {
			for _, y := range g.Out(x) {
				if color != "" {
					if c, _ := g.Color(x, int(y)); c != color {
						continue
					}
				}
				next[int(y)] = true
			}
		}
		if next[v] {
			out[l] = true
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return out
}

// walkWithin returns walkLengths' answer at v for a walk from u with a
// length in [lo, hi], crossing only arcs of color when it is non-empty.
func walkWithin(f *graph.Frozen, u, v, lo, hi int, color string) int {
	w := newWalker(f)
	w.walkLengths(u, pattern.Edge{MinBound: lo, Bound: hi, Color: color})
	return int(w.dist[v])
}

func TestWalkProberHandCases(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with a shortcut 0 -> 3.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 3)
	f := g.Freeze()
	if got := walkWithin(f, 0, 3, 1, 1, ""); got != 1 {
		t.Errorf("lo=1,hi=1: %d, want 1 (the shortcut)", got)
	}
	if got := walkWithin(f, 0, 3, 2, 3, ""); got != 3 {
		t.Errorf("lo=2,hi=3: %d, want 3 (the chain)", got)
	}
	if got := walkWithin(f, 0, 3, 2, 2, ""); got != -1 {
		t.Errorf("lo=2,hi=2: %d, want -1 (no length-2 walk)", got)
	}
	if got := walkWithin(f, 1, 3, 2, 2, ""); got != 2 {
		t.Errorf("from 1, lo=2,hi=2: %d, want 2", got)
	}
}

func TestWalkProberRepeatsVertices(t *testing.T) {
	// 0 <-> 1 plus 0 -> 2: walks 0~>2 have lengths 1, 3, 5, ... — a true
	// path semantics would only offer length 1.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 2)
	f := g.Freeze()
	if got := walkWithin(f, 0, 2, 2, 4, ""); got != 3 {
		t.Errorf("walk with revisit: %d, want 3", got)
	}
	if got := walkWithin(f, 0, 2, 4, 4, ""); got != -1 {
		t.Errorf("even length impossible: %d, want -1", got)
	}
}

// Property: walkLengths agrees with the naive frontier iteration on
// random graphs, ranges and colors. One walker serves every walk on a
// graph, so each walk starts from the marks the previous one left.
func TestWalkProberAgainstNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := graph.New(n)
		edges := r.Intn(3 * n)
		if edges > n*n {
			edges = n * n
		}
		colors := []string{"", "c"}
		for g.M() < edges {
			g.AddColoredEdge(r.Intn(n), r.Intn(n), colors[r.Intn(2)])
		}
		w := newWalker(g.Freeze())
		for i := 0; i < 80; i++ {
			u, v := r.Intn(n), r.Intn(n)
			lo := r.Intn(7) // 0: no lower bound, the window is [1, hi]
			hi := max(lo, 1) + r.Intn(6)
			color := colors[r.Intn(2)]
			want := -1
			lens := naiveWalkLengths(g, u, v, hi, color)
			for l := max(lo, 1); l <= hi; l++ {
				if lens[l] {
					want = l
					break
				}
			}
			w.walkLengths(u, pattern.Edge{MinBound: lo, Bound: hi, Color: color})
			if got := int(w.dist[v]); got != want {
				t.Logf("seed %d (%d,%d,[%d,%d],%q): %d want %d", seed, u, v, lo, hi, color, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangedMatch(t *testing.T) {
	// Pattern: A --[2..3]--> B. Graph: A with a direct edge to one B and a
	// 2-hop route to another.
	g := graph.New(4)
	g.SetAttr(0, graph.Attrs{"label": value.Str("A")})
	g.SetAttr(2, graph.Attrs{"label": value.Str("B")})
	g.SetAttr(3, graph.Attrs{"label": value.Str("B")})
	g.AddEdge(0, 3) // direct: length 1, below the range
	g.AddEdge(0, 1)
	g.AddEdge(1, 2) // length 2: inside the range
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	if _, err := p.AddRangeEdge(a, b, 2, 3, ""); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]DistOracle{
		"matrix": BuildMatrixOracle(g), "bfs": NewBFSOracle(g), "2hop": BuildTwoHopOracle(g),
	} {
		res, err := MatchWithOracle(p, g, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.OK() {
			t.Fatalf("%s: range edge should match via the 2-hop route", name)
		}
		if !res.Contains(b, 2) {
			t.Errorf("%s: B should match node 2", name)
		}
		if !IsMatch(p, g, res.Relation(), o) {
			t.Errorf("%s: IsMatch rejects the ranged result", name)
		}
	}
	// Drop the 2-hop route: the direct edge alone (length 1 < lo) fails.
	g.RemoveEdge(1, 2)
	res, err := Match(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Error("length-1 witness must not satisfy a [2..3] range")
	}
}

// Property: ranged Match equals the naive fixpoint on random inputs.
func TestRangedMatchAgainstNaive(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLabeledGraph(r, 1+r.Intn(10), r.Intn(22), 2)
		p := pattern.New()
		np := 1 + r.Intn(3)
		for i := 0; i < np; i++ {
			p.AddNode(pattern.Label(string(rune('A' + r.Intn(2)))))
		}
		for tries := 0; tries < 5; tries++ {
			from, to := r.Intn(np), r.Intn(np)
			if r.Intn(2) == 0 {
				lo := 2 + r.Intn(3)
				p.AddRangeEdge(from, to, lo, lo+r.Intn(3), "")
			} else {
				p.AddEdge(from, to, 1+r.Intn(3))
			}
		}
		o := BuildMatrixOracle(g)
		res, err := MatchWithOracle(p, g, o)
		if err != nil {
			return false
		}
		want, err := MatchNaive(p, g, o)
		if err != nil {
			return false
		}
		return res.OK() == want.OK() && relEqual(res.Relation(), want.Relation())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangedResultGraphWitness(t *testing.T) {
	g := graph.New(3)
	g.SetAttr(0, graph.Attrs{"label": value.Str("A")})
	g.SetAttr(2, graph.Attrs{"label": value.Str("B")})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	if _, err := p.AddRangeEdge(a, b, 2, 4, ""); err != nil {
		t.Fatal(err)
	}
	o := BuildMatrixOracle(g)
	res, _ := MatchWithOracle(p, g, o)
	rg := BuildResultGraph(res, o)
	if len(rg.Edges) != 1 || rg.Edges[0].Dist != 2 {
		t.Errorf("ranged result edge: %+v", rg.Edges)
	}
}
