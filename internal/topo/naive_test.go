package topo

import (
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// --- naive reference implementations -------------------------------------
//
// Independent textbook fixpoints, deliberately sharing no machinery with
// the counter/worklist code under test: the naive dual (NaiveDualSim)
// rescans every pair until stable, and the naive strong enumerates every
// node as a ball center (not just the dual prefilter's image).

// NaiveStrong evaluates every data node as a ball center with a fresh
// (unseeded) in-ball naive dual fixpoint. It lives in package topo so
// that both the external tests and the fuzz target referee StrongSim
// against it.
func NaiveStrong(p *pattern.Pattern, f *graph.Frozen) ([][]int32, bool) {
	np, n := p.N(), f.N()
	res := make([][]bool, np)
	for u := range res {
		res[u] = make([]bool, n)
	}
	for _, c := range Components(p) {
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
			dual, _ := NaiveDualSim(p, f, inBall)
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
