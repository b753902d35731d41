package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpm/internal/value"
)

func mustValidate(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNewAndAddNode(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	id := g.AddNode(Attrs{"label": value.Str("X")})
	if id != 3 || g.N() != 4 {
		t.Fatalf("AddNode id=%d N=%d", id, g.N())
	}
	if g.Label(3) != "X" {
		t.Errorf("Label(3) = %q", g.Label(3))
	}
	if g.Label(0) != "" {
		t.Errorf("Label(0) = %q, want empty", g.Label(0))
	}
	mustValidate(t, g)
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false")
	}
	if g.AddEdge(0, 1) {
		t.Fatal("duplicate AddEdge should report false")
	}
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 2) // self loop
	if g.M() != 4 {
		t.Fatalf("M = %d", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge direction wrong")
	}
	if g.OutDegree(2) != 2 || g.InDegree(2) != 2 {
		t.Errorf("deg(2) = out %d in %d", g.OutDegree(2), g.InDegree(2))
	}
	mustValidate(t, g)

	if !g.RemoveEdge(2, 2) {
		t.Fatal("RemoveEdge(2,2) = false")
	}
	if g.RemoveEdge(2, 2) {
		t.Fatal("double remove should report false")
	}
	if g.M() != 3 || g.HasEdge(2, 2) {
		t.Error("self loop not removed")
	}
	mustValidate(t, g)
}

func TestEdgePanicsOutOfRange(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range should panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestColors(t *testing.T) {
	g := New(3)
	g.AddColoredEdge(0, 1, "friend")
	g.AddEdge(1, 2)
	if !g.Colored() {
		t.Error("Colored() = false")
	}
	if c, ok := g.Color(0, 1); !ok || c != "friend" {
		t.Errorf("Color(0,1) = %q,%v", c, ok)
	}
	if c, ok := g.Color(1, 2); !ok || c != "" {
		t.Errorf("Color(1,2) = %q,%v", c, ok)
	}
	if _, ok := g.Color(2, 0); ok {
		t.Error("Color on missing edge should report !ok")
	}
	g.RemoveEdge(0, 1)
	if g.Colored() {
		t.Error("color should be dropped with the edge")
	}
	mustValidate(t, g)
}

func TestEdgeListAndIteration(t *testing.T) {
	g := New(3)
	g.AddEdge(2, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	want := [][2]int32{{0, 1}, {0, 2}, {2, 1}}
	got := g.EdgeList()
	if len(got) != len(want) {
		t.Fatalf("EdgeList len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("EdgeList[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	n := 0
	g.Edges(func(u, v int) { n++ })
	if n != 3 {
		t.Errorf("Edges visited %d", n)
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	g.SetAttr(0, Attrs{"x": value.Int(1)})
	g.AddColoredEdge(0, 1, "c")
	g.AddEdge(1, 2)
	c := g.Clone()
	mustValidate(t, c)
	c.RemoveEdge(0, 1)
	c.Attr(0)["x"] = value.Int(9)
	if !g.HasEdge(0, 1) {
		t.Error("clone shares edges")
	}
	if v, _ := g.Attr(0).Get("x"); !v.Equal(value.Int(1)) {
		t.Error("clone shares attrs")
	}
	if col, _ := g.Color(0, 1); col != "c" {
		t.Error("clone removal affected original colors")
	}
}

func buildChain(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestBFSDist(t *testing.T) {
	g := buildChain(5)
	d := g.BFSDist(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist(0,%d) = %d, want %d", i, d[i], want)
		}
	}
	d = g.BFSDist(3)
	if d[0] != -1 || d[4] != 1 {
		t.Errorf("dist from 3: %v", d)
	}
}

func TestBFSBounded(t *testing.T) {
	g := buildChain(6)
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	reached := g.BFSDistInto(0, 2, dist, nil)
	if reached != 3 {
		t.Errorf("reached = %d, want 3", reached)
	}
	if dist[2] != 2 || dist[3] != -1 {
		t.Errorf("bounded dist: %v", dist)
	}
}

func TestBFSReverse(t *testing.T) {
	g := buildChain(4)
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	g.BFSReverseDistInto(3, -1, dist, nil)
	for i, want := range []int32{3, 2, 1, 0} {
		if dist[i] != want {
			t.Errorf("revdist(%d,3) = %d, want %d", i, dist[i], want)
		}
	}
}

func TestDistAndReachable(t *testing.T) {
	g := buildChain(4)
	if d := g.Dist(0, 3, -1); d != 3 {
		t.Errorf("Dist(0,3) = %d", d)
	}
	if d := g.Dist(0, 3, 2); d != -1 {
		t.Errorf("bounded Dist(0,3,2) = %d", d)
	}
	if d := g.Dist(2, 2, -1); d != 0 {
		t.Errorf("Dist(2,2) = %d", d)
	}
	if g.Reachable(3, 0) {
		t.Error("Reachable(3,0) = true")
	}
	if !g.Reachable(0, 3) {
		t.Error("Reachable(0,3) = false")
	}
}

func randomGraph(r *rand.Rand, n, m int) *Graph {
	g := New(n)
	for g.M() < m {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

// Property: BFSDist agrees with Floyd-Warshall on random graphs.
func TestBFSAgainstFloydWarshall(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		m := r.Intn(n * n / 2)
		g := randomGraph(r, n, m)
		const inf = 1 << 20
		fw := make([][]int, n)
		for i := range fw {
			fw[i] = make([]int, n)
			for j := range fw[i] {
				fw[i][j] = inf
			}
			fw[i][i] = 0
		}
		g.Edges(func(u, v int) {
			if fw[u][v] > 1 && u != v {
				fw[u][v] = 1
			}
		})
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if fw[i][k]+fw[k][j] < fw[i][j] {
						fw[i][j] = fw[i][k] + fw[k][j]
					}
				}
			}
		}
		for src := 0; src < n; src++ {
			d := g.BFSDist(src)
			for v := 0; v < n; v++ {
				want := fw[src][v]
				if want == inf {
					want = -1
				}
				if int(d[v]) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(3, 3)
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Edges != 4 {
		t.Errorf("stats size: %+v", s)
	}
	if s.MaxOut != 2 || s.Sinks != 1 || s.SelfLoops != 1 {
		t.Errorf("stats detail: %+v", s)
	}
	if s.AvgDegree != 1.0 {
		t.Errorf("avg = %f", s.AvgDegree)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	empty := ComputeStats(New(0))
	if empty.Nodes != 0 {
		t.Error("empty stats")
	}
}

func TestSCC(t *testing.T) {
	g := New(6)
	// cycle 0->1->2->0, chain 2->3, cycle 4<->5
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(4, 5)
	g.AddEdge(5, 4)
	comps := StronglyConnectedComponents(g)
	sizes := map[int]int{}
	total := 0
	for _, c := range comps {
		sizes[len(c)]++
		total += len(c)
	}
	if total != 6 {
		t.Fatalf("SCC covers %d nodes", total)
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("component sizes: %v", sizes)
	}
	if IsDAG(g) {
		t.Error("IsDAG on cyclic graph")
	}
	dag := buildChain(4)
	if !IsDAG(dag) {
		t.Error("IsDAG on chain = false")
	}
	loop := New(1)
	loop.AddEdge(0, 0)
	if IsDAG(loop) {
		t.Error("self loop should not be a DAG")
	}
}

// Property: after random interleaved insertions and deletions the graph
// still validates and HasEdge matches a reference map.
func TestMutationConsistency(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		g := New(n)
		ref := map[[2]int]bool{}
		for step := 0; step < 200; step++ {
			u, v := r.Intn(n), r.Intn(n)
			if r.Intn(2) == 0 {
				added := g.AddEdge(u, v)
				if added == ref[[2]int{u, v}] {
					return false
				}
				ref[[2]int{u, v}] = true
			} else {
				removed := g.RemoveEdge(u, v)
				if removed != ref[[2]int{u, v}] {
					return false
				}
				delete(ref, [2]int{u, v})
			}
		}
		if g.Validate() != nil {
			return false
		}
		if g.M() != len(ref) {
			return false
		}
		for e := range ref {
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDump(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	if s := g.Dump(); s == "" {
		t.Error("empty Dump")
	}
	if g.String() != "graph{nodes: 2, edges: 1}" {
		t.Errorf("String() = %q", g.String())
	}
}
