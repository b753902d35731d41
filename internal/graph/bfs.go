package graph

// This file provides the breadth-first primitives shared by the distance
// matrix, the BFS match variant and the 2-hop index: unit-weight shortest
// path computation, optionally bounded, reversed, or restricted to edges
// of one color.

// BFSDist runs a BFS from src and returns the distance to every node
// (-1 when unreachable, 0 at src). The result slice is freshly allocated.
func (g *Graph) BFSDist(src int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	g.BFSDistInto(src, -1, dist, nil)
	return dist
}

// BFSDistInto runs a BFS from src into dist, which must be pre-filled with
// -1 and have length N(). When bound >= 0 the search stops expanding
// beyond that depth. queue, if non-nil, is used as scratch space; its
// grown backing array is handed back through the pointer so reuse is
// sticky across calls (historically the queue was passed by value and
// every growth was lost to the caller — see Scratch for pooled reuse).
// It returns the number of nodes reached (including src).
func (g *Graph) BFSDistInto(src, bound int, dist []int32, queue *[]int32) int {
	var local []int32
	if queue == nil {
		queue = &local
	}
	q := (*queue)[:0]
	dist[src] = 0
	q = append(q, int32(src))
	reached := 1
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := dist[u]
		if bound >= 0 && int(du) >= bound {
			continue
		}
		for _, v := range g.out[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				reached++
				q = append(q, v)
			}
		}
	}
	*queue = q
	return reached
}

// BFSReverseDistInto is BFSDistInto over reversed edges: dist[v] becomes
// the length of the shortest path from v to dst.
func (g *Graph) BFSReverseDistInto(dst, bound int, dist []int32, queue *[]int32) int {
	var local []int32
	if queue == nil {
		queue = &local
	}
	q := (*queue)[:0]
	dist[dst] = 0
	q = append(q, int32(dst))
	reached := 1
	for head := 0; head < len(q); head++ {
		v := q[head]
		dv := dist[v]
		if bound >= 0 && int(dv) >= bound {
			continue
		}
		for _, u := range g.in[v] {
			if dist[u] < 0 {
				dist[u] = dv + 1
				reached++
				q = append(q, u)
			}
		}
	}
	*queue = q
	return reached
}

// Dist returns the shortest-path distance from u to v (0 when u == v,
// -1 when unreachable) using a BFS bounded by bound when bound >= 0.
func (g *Graph) Dist(u, v, bound int) int {
	if u == v {
		return 0
	}
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	g.BFSDistInto(u, bound, dist, nil)
	return int(dist[v])
}

// Reachable reports whether v is reachable from u (reflexively).
func (g *Graph) Reachable(u, v int) bool { return g.Dist(u, v, -1) >= 0 }
