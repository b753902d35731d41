package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gpm/internal/graph"
	"gpm/internal/matrix"
	"gpm/internal/pattern"
)

func lineGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestMatrixOracleBasics(t *testing.T) {
	g := lineGraph(5)
	o := BuildMatrixOracle(g)
	cases := []struct {
		u, v, bound, want int
	}{
		{0, 3, -1, 3},  // unbounded
		{0, 3, 3, 3},   // exactly at bound
		{0, 3, 2, -1},  // over bound
		{3, 0, -1, -1}, // unreachable
		{2, 2, -1, -1}, // no cycle: nonempty self-path absent
		{0, 1, 1, 1},
	}
	for _, c := range cases {
		if got := o.NonemptyDistWithin(c.u, c.v, c.bound); got != c.want {
			t.Errorf("matrix (%d,%d,b=%d) = %d, want %d", c.u, c.v, c.bound, got, c.want)
		}
	}
	if o.Matrix() == nil {
		t.Error("Matrix() accessor nil")
	}
}

func TestOracleSelfCycle(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	for name, o := range map[string]DistOracle{
		"matrix": BuildMatrixOracle(g),
		"bfs":    NewBFSOracle(g),
		"2hop":   BuildTwoHopOracle(g),
		"pll":    mustBuildPLL(t, g),
	} {
		if got := o.NonemptyDistWithin(0, 0, -1); got != 2 {
			t.Errorf("%s: self-cycle dist = %d, want 2", name, got)
		}
		if got := o.NonemptyDistWithin(0, 0, 1); got != -1 {
			t.Errorf("%s: self-cycle within 1 = %d, want -1", name, got)
		}
		if got := o.NonemptyDistWithin(2, 2, -1); got != -1 {
			t.Errorf("%s: acyclic node self dist = %d, want -1", name, got)
		}
	}
}

// TestBFSOracleCachePatterns drives the cache through the access patterns
// Match generates: source-major sweeps, then target-major sweeps, with
// interleaved misses.
func TestBFSOracleCachePatterns(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := graph.New(20)
	for g.M() < 60 {
		g.AddEdge(r.Intn(20), r.Intn(20))
	}
	m := matrix.New(g)
	o := NewBFSOracle(g)
	// Source-major: fixed u, sweep v.
	for u := 0; u < 20; u++ {
		for v := 0; v < 20; v++ {
			want := m.NonemptyDist(u, v)
			if got := o.NonemptyDistWithin(u, v, -1); got != want {
				t.Fatalf("src-major (%d,%d): %d want %d", u, v, got, want)
			}
		}
	}
	// Target-major: fixed v, sweep u.
	for v := 0; v < 20; v++ {
		for u := 0; u < 20; u++ {
			want := m.NonemptyDist(u, v)
			if got := o.NonemptyDistWithin(u, v, -1); got != want {
				t.Fatalf("dst-major (%d,%d): %d want %d", u, v, got, want)
			}
		}
	}
	// Random access.
	for i := 0; i < 500; i++ {
		u, v := r.Intn(20), r.Intn(20)
		want := clampToBound(m.NonemptyDist(u, v), 3)
		if got := o.NonemptyDistWithin(u, v, 3); got != want {
			t.Fatalf("random (%d,%d): %d want %d", u, v, got, want)
		}
	}
}

func TestBFSOracleInvalidate(t *testing.T) {
	g := lineGraph(3)
	o := NewBFSOracle(g)
	if o.NonemptyDistWithin(0, 2, -1) != 2 {
		t.Fatal("initial dist wrong")
	}
	g.AddEdge(0, 2)
	o.Invalidate()
	if got := o.NonemptyDistWithin(0, 2, -1); got != 1 {
		t.Errorf("after invalidate: %d, want 1", got)
	}
}

// Property: all three oracles agree with the matrix ground truth on
// random graphs, bounds, and both orders of endpoint iteration.
func TestOraclesAgree(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		g := graph.New(n)
		edges := r.Intn(3 * n)
		if edges > n*n {
			edges = n * n
		}
		for g.M() < edges {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		m := matrix.New(g)
		oracles := []DistOracle{BuildMatrixOracle(g), NewBFSOracle(g), BuildTwoHopOracle(g), mustBuildPLL(t, g)}
		for i := 0; i < 200; i++ {
			u, v := r.Intn(n), r.Intn(n)
			bound := r.Intn(6) - 1
			var want int
			if u == v {
				want = m.Cycle(u)
			} else {
				want = m.Dist(u, v)
			}
			want = clampToBound(want, bound)
			for oi, o := range oracles {
				if got := o.NonemptyDistWithin(u, v, bound); got != want {
					t.Logf("seed %d oracle %d (%d,%d,b=%d): %d want %d", seed, oi, u, v, bound, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a coloured witness length — walkLengths, the referee of the
// kernel's coloured sweeps, since no oracle answers colours — equals the
// plain nonempty distance on the colour-induced subgraph.
func TestColoredOraclesAgree(t *testing.T) {
	colors := []string{"red", "blue"}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := graph.New(n)
		edges := r.Intn(3 * n)
		if edges > n*n {
			edges = n * n
		}
		for g.M() < edges {
			g.AddColoredEdge(r.Intn(n), r.Intn(n), colors[r.Intn(2)])
		}
		// Ground truth: subgraph of red edges only.
		sub := graph.New(n)
		g.Edges(func(u, v int) {
			if c, _ := g.Color(u, v); c == "red" {
				sub.AddEdge(u, v)
			}
		})
		m := matrix.New(sub)
		f := g.Freeze()
		w := newWalker(f)
		for i := 0; i < 100; i++ {
			u, v := r.Intn(n), r.Intn(n)
			bound := r.Intn(5) - 1
			w.walkLengths(u, pattern.Edge{Bound: bound, Color: "red"})
			if want := clampToBound(m.NonemptyDist(u, v), bound); int(w.dist[v]) != want {
				t.Logf("seed %d (%d,%d,b=%d,red): %d want %d", seed, u, v, bound, w.dist[v], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func mustBuildPLL(t testing.TB, g *graph.Graph) *PLLOracle {
	t.Helper()
	o, err := BuildPLLOracle(context.Background(), g)
	if err != nil {
		t.Fatalf("BuildPLLOracle: %v", err)
	}
	return o
}

// TestPLLOracleCachePatterns drives the PLL probe caches through the
// access patterns Match generates: source-major sweeps, target-major
// sweeps, then random access — the PLL analog of the BFS cache test.
func TestPLLOracleCachePatterns(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := graph.New(20)
	for g.M() < 60 {
		g.AddEdge(r.Intn(20), r.Intn(20))
	}
	m := matrix.New(g)
	o := mustBuildPLL(t, g)
	if o.Index() == nil {
		t.Fatal("Index() nil")
	}
	for u := 0; u < 20; u++ {
		for v := 0; v < 20; v++ {
			want := m.NonemptyDist(u, v)
			if got := o.NonemptyDistWithin(u, v, -1); got != want {
				t.Fatalf("src-major (%d,%d): %d want %d", u, v, got, want)
			}
		}
	}
	for v := 0; v < 20; v++ {
		for u := 0; u < 20; u++ {
			want := m.NonemptyDist(u, v)
			if got := o.NonemptyDistWithin(u, v, -1); got != want {
				t.Fatalf("dst-major (%d,%d): %d want %d", u, v, got, want)
			}
		}
	}
	for i := 0; i < 500; i++ {
		u, v := r.Intn(20), r.Intn(20)
		bound := r.Intn(5) - 1
		want := clampToBound(m.NonemptyDist(u, v), bound)
		if got := o.NonemptyDistWithin(u, v, bound); got != want {
			t.Fatalf("random (%d,%d,b=%d): %d want %d", u, v, bound, got, want)
		}
	}
}

// TestPLLOracleWorkerClones checks that concurrent clones sharing one
// labelling answer independently and correctly — the contract the
// parallel fixpoint relies on.
func TestPLLOracleWorkerClones(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := graph.New(30)
	for g.M() < 90 {
		g.AddColoredEdge(r.Intn(30), r.Intn(30), []string{"", "red"}[r.Intn(2)])
	}
	m := matrix.New(g)
	root := mustBuildPLL(t, g)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		o := root.CloneForWorker()
		seed := int64(100 + w)
		go func() {
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				u, v := rr.Intn(30), rr.Intn(30)
				want := clampToBound(m.NonemptyDist(u, v), -1)
				if got := o.NonemptyDistWithin(u, v, -1); got != want {
					done <- fmt.Errorf("clone (%d,%d): %d want %d", u, v, got, want)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTwoHopOracleAccessors(t *testing.T) {
	g := lineGraph(4)
	o := BuildTwoHopOracle(g)
	if o.Index() == nil {
		t.Error("Index() nil")
	}
	if got := o.NonemptyDistWithin(0, 3, -1); got != 3 {
		t.Errorf("dist = %d", got)
	}
	if got := o.NonemptyDistWithin(3, 0, -1); got != -1 {
		t.Errorf("filtered unreachable = %d", got)
	}
}
