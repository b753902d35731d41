package topo_test

import (
	"context"
	"reflect"
	"testing"

	"gpm/internal/generator"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/simulation"
	"gpm/internal/topo"
	"gpm/internal/value"
)

// colorOK mirrors the package-internal color check: data edge (u, v)
// satisfies a pattern edge's color demand.
func colorOK(f *graph.Frozen, u, v int, want string) bool {
	if want == "" {
		return true
	}
	return f.Color(u, v) == want
}

// --- naive reference implementations -------------------------------------
//
// Independent textbook fixpoints, deliberately sharing no machinery with
// the counter/worklist code under test: the naive dual (topo.NaiveDualSim)
// rescans every pair until stable, and the naive strong enumerates every
// node as a ball center (not just the dual prefilter's image).

// naiveStrong evaluates every data node as a ball center with a fresh
// (unseeded) in-ball naive dual fixpoint.
func naiveStrong(p *pattern.Pattern, f *graph.Frozen) ([][]int32, bool) {
	np, n := p.N(), f.N()
	res := make([][]bool, np)
	for u := range res {
		res[u] = make([]bool, n)
	}
	for _, c := range topo.Components(p) {
		for center := 0; center < n; center++ {
			// Undirected ball by naive BFS.
			dist := make([]int32, n)
			for i := range dist {
				dist[i] = -1
			}
			var queue []int32
			f.BallInto(center, c.Radius, dist, &queue)
			inBall := func(x int) bool { return dist[x] >= 0 }

			// The in-ball dual fixpoint. Pattern components share no edge,
			// so c's rows do not depend on the other components'.
			dual, _ := topo.NaiveDualSim(p, f, inBall)
			sim := make([][]bool, np)
			for u, row := range dual {
				sim[u] = make([]bool, n)
				for _, x := range row {
					sim[u][x] = true
				}
			}

			matched := false
			for _, u := range c.Nodes {
				if sim[u][center] {
					matched = true
					break
				}
			}
			if !matched {
				continue
			}
			// Connected component of the match graph containing center.
			visited := make([]bool, n)
			visited[center] = true
			comp := []int{center}
			for head := 0; head < len(comp); head++ {
				x := comp[head]
				for y := 0; y < n; y++ {
					if visited[y] || !inBall(y) {
						continue
					}
					link := false
					for _, eid := range c.Edges {
						e := p.EdgeAt(eid)
						if hasEdge(f, x, y) && sim[e.From][x] && sim[e.To][y] && colorOK(f, x, y, e.Color) {
							link = true
						}
						if hasEdge(f, y, x) && sim[e.From][y] && sim[e.To][x] && colorOK(f, y, x, e.Color) {
							link = true
						}
					}
					if link {
						visited[y] = true
						comp = append(comp, y)
					}
				}
			}
			perfect := true
			for _, u := range c.Nodes {
				found := false
				for _, x := range comp {
					if sim[u][x] {
						found = true
						break
					}
				}
				if !found {
					perfect = false
					break
				}
			}
			if !perfect {
				continue
			}
			for _, u := range c.Nodes {
				for _, x := range comp {
					if sim[u][x] {
						res[u][x] = true
					}
				}
			}
		}
	}
	rel := make([][]int32, np)
	ok := true
	for u := 0; u < np; u++ {
		for x := 0; x < n; x++ {
			if res[u][x] {
				rel[u] = append(rel[u], int32(x))
			}
		}
		if len(rel[u]) == 0 {
			ok = false
		}
	}
	return rel, ok
}

func hasEdge(f *graph.Frozen, u, v int) bool {
	for _, y := range f.Out(u) {
		if int(y) == v {
			return true
		}
	}
	return false
}

// --- helpers -------------------------------------------------------------

func labeledGraph(t *testing.T, labels []string, edges [][2]int) *graph.Graph {
	t.Helper()
	g := graph.New(len(labels))
	for i, l := range labels {
		g.SetAttr(i, graph.Attrs{"label": value.Str(l)})
	}
	for _, e := range edges {
		if !g.AddEdge(e[0], e[1]) {
			t.Fatalf("duplicate edge %v", e)
		}
	}
	return g
}

func labelPattern(t *testing.T, labels []string, edges [][2]int) *pattern.Pattern {
	t.Helper()
	p := pattern.New()
	for _, l := range labels {
		p.AddNode(pattern.Label(l))
	}
	for _, e := range edges {
		p.MustAddEdge(e[0], e[1], 1)
	}
	return p
}

func randomCase(seed int64, nodes, edges, pnodes, pedges int) (*pattern.Pattern, *graph.Frozen) {
	g := generator.Graph(generator.GraphConfig{
		Nodes: nodes, Edges: edges, Attrs: nodes / 6, Model: generator.ER, Seed: seed,
	})
	p := generator.Pattern(generator.PatternConfig{
		Nodes: pnodes, Edges: pedges, K: 1, Seed: seed * 7793,
	}, g)
	return p, g.Freeze()
}

// --- tests ---------------------------------------------------------------

// Dual simulation removes matches that plain simulation keeps: a data
// node with no matched parent violates the parent constraint even though
// plain simulation (child constraints only) accepts it.
func TestDualParentConstraint(t *testing.T) {
	// b0 has no incoming edge from an A node; b1 does.
	g := labeledGraph(t, []string{"A", "B", "B"}, [][2]int{{0, 2}})
	p := labelPattern(t, []string{"A", "B"}, [][2]int{{0, 1}})
	f := g.Freeze()

	sim, ok, err := simulation.RunFrozen(context.Background(), p, f)
	if err != nil || !ok {
		t.Fatalf("plain simulation: ok=%v err=%v", ok, err)
	}
	if len(sim[1]) != 2 {
		t.Fatalf("plain simulation should keep both B nodes, got %v", sim[1])
	}

	dual, ok, err := topo.DualSim(context.Background(), p, f, topo.Options{})
	if err != nil {
		t.Fatalf("DualSim: %v", err)
	}
	if !ok {
		t.Fatalf("DualSim: pattern should match")
	}
	if want := []int32{2}; !reflect.DeepEqual(dual[1], want) {
		t.Errorf("dual sim(B) = %v, want %v (b0 has no matched parent)", dual[1], want)
	}
	if want := []int32{0}; !reflect.DeepEqual(dual[0], want) {
		t.Errorf("dual sim(A) = %v, want %v", dual[0], want)
	}
}

// Strong simulation rejects matches that dual simulation accepts when the
// topology only closes outside the ball: a triangle pattern dual-matches
// a 6-cycle (labels repeat every 3 nodes), but no radius-1 ball around
// any node contains a full triangle witness.
func TestStrongRejectsUnrolledCycle(t *testing.T) {
	g := labeledGraph(t,
		[]string{"A", "B", "C", "A", "B", "C"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	p := labelPattern(t, []string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	f := g.Freeze()

	dual, ok, err := topo.DualSim(context.Background(), p, f, topo.Options{})
	if err != nil || !ok {
		t.Fatalf("DualSim: ok=%v err=%v (the 6-cycle dual-matches the triangle)", ok, err)
	}
	for u := 0; u < 3; u++ {
		if len(dual[u]) != 2 {
			t.Fatalf("dual sim(%d) = %v, want both same-label nodes", u, dual[u])
		}
	}

	strong, ok, err := topo.StrongSim(context.Background(), p, f, topo.Options{})
	if err != nil {
		t.Fatalf("StrongSim: %v", err)
	}
	if ok {
		t.Errorf("topo.StrongSim accepted the unrolled cycle: %v", strong)
	}
	for u, l := range strong {
		if len(l) != 0 {
			t.Errorf("strong sim(%d) = %v, want empty", u, l)
		}
	}
}

// A genuine triangle is within one ball, so strong simulation accepts it.
func TestStrongAcceptsRealCycle(t *testing.T) {
	g := labeledGraph(t, []string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	p := labelPattern(t, []string{"A", "B", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	strong, ok, err := topo.StrongSim(context.Background(), p, g.Freeze(), topo.Options{})
	if err != nil || !ok {
		t.Fatalf("StrongSim: ok=%v err=%v", ok, err)
	}
	for u := 0; u < 3; u++ {
		if want := []int32{int32(u)}; !reflect.DeepEqual(strong[u], want) {
			t.Errorf("strong sim(%d) = %v, want %v", u, strong[u], want)
		}
	}
}

// topo.DualSim must equal the naive rescan fixpoint on random workloads.
func TestDualSimMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p, f := randomCase(seed, 60, 180, 4, 5)
		got, gotOK, err := topo.DualSim(context.Background(), p, f, topo.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, wantOK := topo.NaiveDualSim(p, f, nil)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: topo.DualSim diverges from naive\n got %v ok=%v\nwant %v ok=%v",
				seed, got, gotOK, want, wantOK)
		}
	}
}

// Child-only dual simulation is plain graph simulation: the sim entry
// point runs the same kernel as DualSim with the parent constraints off,
// so it must equal the naive simulation rescan and contain DualSim.
func TestDualChildOnlyEqualsSimulation(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p, f := randomCase(seed, 50, 150, 4, 5)
		got, gotOK, err := simulation.RunFrozen(context.Background(), p, f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, wantOK, err := simulation.RunNaive(p, f)
		if err != nil {
			t.Fatalf("seed %d: naive simulation: %v", seed, err)
		}
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: child-only kernel != naive plain simulation", seed)
		}
		dual, _, err := topo.DualSim(context.Background(), p, f, topo.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for u := range dual {
			if !subset(dual[u], got[u]) {
				t.Errorf("seed %d: dual(%d) = %v ⊄ sim(%d) = %v", seed, u, dual[u], u, got[u])
			}
		}
	}
}

// topo.StrongSim must equal the naive all-centers reference on random
// workloads (which also exercises the dual-prefilter center pruning).
func TestStrongSimMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		p, f := randomCase(seed, 40, 110, 4, 5)
		got, gotOK, err := topo.StrongSim(context.Background(), p, f, topo.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, wantOK := naiveStrong(p, f)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: topo.StrongSim diverges from naive\n got %v ok=%v\nwant %v ok=%v\npattern:\n%s",
				seed, got, gotOK, want, wantOK, p)
		}
	}
}

// Every worker count must produce bit-identical relations.
func TestWorkerCountsBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p, f := randomCase(seed, 70, 210, 4, 5)
		dualRef, dualOK, err := topo.DualSim(context.Background(), p, f, topo.Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		strongRef, strongOK, err := topo.StrongSim(context.Background(), p, f, topo.Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, w := range []int{2, 3, 4, 8} {
			d, dok, err := topo.DualSim(context.Background(), p, f, topo.Options{Workers: w})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if dok != dualOK || !reflect.DeepEqual(d, dualRef) {
				t.Errorf("seed %d: topo.DualSim at %d workers diverges", seed, w)
			}
			s, sok, err := topo.StrongSim(context.Background(), p, f, topo.Options{Workers: w})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if sok != strongOK || !reflect.DeepEqual(s, strongRef) {
				t.Errorf("seed %d: topo.StrongSim at %d workers diverges", seed, w)
			}
		}
	}
}

// Both semantics reject patterns with bounds != 1 and propagate
// cancellation.
func TestValidationAndCancellation(t *testing.T) {
	g := labeledGraph(t, []string{"A", "B"}, [][2]int{{0, 1}})
	f := g.Freeze()
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	p.MustAddEdge(a, b, 2)
	if _, _, err := topo.DualSim(context.Background(), p, f, topo.Options{}); err == nil {
		t.Errorf("topo.DualSim accepted a bound-2 pattern")
	}
	if _, _, err := topo.StrongSim(context.Background(), p, f, topo.Options{}); err == nil {
		t.Errorf("topo.StrongSim accepted a bound-2 pattern")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pBig, fBig := randomCase(3, 80, 240, 4, 5)
	if _, _, err := topo.DualSim(ctx, pBig, fBig, topo.Options{}); err == nil {
		t.Errorf("topo.DualSim ignored a cancelled context")
	}
	if _, _, err := topo.StrongSim(ctx, pBig, fBig, topo.Options{}); err == nil {
		t.Errorf("topo.StrongSim ignored a cancelled context")
	}
}

// topo.IsDualSim accepts DualSim's output and rejects corrupted relations.
func TestIsDualSim(t *testing.T) {
	p, f := randomCase(5, 50, 150, 4, 5)
	rel, _, err := topo.DualSim(context.Background(), p, f, topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !topo.IsDualSim(p, f, rel) {
		t.Fatalf("topo.IsDualSim rejects topo.DualSim output")
	}
	// Corrupt: add every node to sim(0); predicates or constraints must
	// break somewhere on a nontrivial workload.
	bad := make([][]int32, len(rel))
	copy(bad, rel)
	all := make([]int32, f.N())
	for i := range all {
		all[i] = int32(i)
	}
	bad[0] = all
	if topo.IsDualSim(p, f, bad) {
		t.Skipf("corrupted relation happens to be a dual simulation on this seed")
	}
}

// subset reports a ⊆ b for ascending rows.
func subset(a, b []int32) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}
