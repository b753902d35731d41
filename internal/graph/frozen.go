package graph

import "sync"

// Frozen is an immutable CSR (compressed sparse row) snapshot of a Graph:
// both adjacency directions packed into flat int32 arrays with per-node
// offset indexes. A Frozen is safe for concurrent use by any number of
// goroutines with no locking, which makes it the traversal substrate for
// the parallel matching core — the distance-matrix build, the BFS oracle
// frontiers and the fixpoint's witness sweeps all read a Frozen instead of
// the mutable [][]int32 adjacency of the live Graph.
//
// A snapshot does not track later mutations of its source graph; holders
// must re-Freeze after updates (the engine layer does this on
// Engine.Update). Attribute tuples are shared with the source graph, not
// copied — they are treated as read-only everywhere in this module.
type Frozen struct {
	attrs  []Attrs
	outOff []int32 // len N()+1; out-neighbors of u are outAdj[outOff[u]:outOff[u+1]]
	outAdj []int32
	inOff  []int32
	inAdj  []int32
	colors map[uint64]string // private copy; nil when the graph is uncolored
	m      int

	// Derived structures, built lazily on first use and shared by every
	// reader of the snapshot (see Condensation and AttrIndex).
	condOnce sync.Once
	cond     *Condensation
	attrMu   sync.RWMutex
	attrIdx  map[string]*AttrIndex
}

// Freeze snapshots g into CSR form in O(|V|+|E|).
func (g *Graph) Freeze() *Frozen {
	n := g.N()
	f := &Frozen{
		attrs:  append([]Attrs(nil), g.attrs...),
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
		outAdj: make([]int32, 0, g.m),
		inAdj:  make([]int32, 0, g.m),
		m:      g.m,
	}
	for v := 0; v < n; v++ {
		f.outAdj = append(f.outAdj, g.out[v]...)
		f.outOff[v+1] = int32(len(f.outAdj))
		f.inAdj = append(f.inAdj, g.in[v]...)
		f.inOff[v+1] = int32(len(f.inAdj))
	}
	if len(g.colors) > 0 {
		f.colors = make(map[uint64]string, len(g.colors))
		for k, c := range g.colors {
			f.colors[k] = c
		}
	}
	return f
}

// N returns the number of nodes.
func (f *Frozen) N() int { return len(f.attrs) }

// M returns the number of edges.
func (f *Frozen) M() int { return f.m }

// Attr returns the attribute tuple of node v (may be nil). Treat it as
// read-only.
func (f *Frozen) Attr(v int) Attrs { return f.attrs[v] }

// Out returns the out-neighbors of u. The slice is owned by the snapshot
// and must not be modified.
func (f *Frozen) Out(u int) []int32 { return f.outAdj[f.outOff[u]:f.outOff[u+1]] }

// In returns the in-neighbors of v under the same ownership rules as Out.
func (f *Frozen) In(v int) []int32 { return f.inAdj[f.inOff[v]:f.inOff[v+1]] }

// OutDegree returns the number of edges leaving u.
func (f *Frozen) OutDegree(u int) int { return int(f.outOff[u+1] - f.outOff[u]) }

// InDegree returns the number of edges entering v.
func (f *Frozen) InDegree(v int) int { return int(f.inOff[v+1] - f.inOff[v]) }

// Colored reports whether any edge in the snapshot carries a color.
func (f *Frozen) Colored() bool { return len(f.colors) > 0 }

// Color returns the color of edge (u, v), or "" for uncolored edges. The
// edge must exist (Color does not test membership; pass neighbors read
// from Out/In).
func (f *Frozen) Color(u, v int) string {
	if f.colors == nil {
		return ""
	}
	return f.colors[edgeKey(u, v)]
}

// Edges calls fn for every edge in node-major order.
func (f *Frozen) Edges(fn func(u, v int)) {
	for u := 0; u < f.N(); u++ {
		for _, v := range f.Out(u) {
			fn(u, int(v))
		}
	}
}

// BFSDistInto runs a BFS from src into dist, which must be pre-filled
// with -1 and have length N(). When bound >= 0 the search stops expanding
// beyond that depth. queue, if non-nil, is used as scratch space and its
// grown backing array is handed back to the caller through the pointer
// (see Scratch for pooled reuse). It returns the number of nodes reached
// (including src).
func (f *Frozen) BFSDistInto(src, bound int, dist []int32, queue *[]int32) int {
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
		for _, v := range f.Out(int(u)) {
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

// BallInto runs an undirected BFS from center, treating every edge as
// bidirectional, and stops expanding beyond radius hops (radius < 0 means
// no limit). It fills dist — which must be pre-filled with -1 and have
// length N() — with undirected hop distances, and returns the number of
// nodes reached (including center). The reached nodes are left in *queue
// in BFS order, so queue[:reached] is the ball's member list — this is
// the ball-extraction primitive of strong simulation (Ma et al., VLDB
// 2012), where the ball Ĝ[w, r] around a candidate center w collects the
// nodes within undirected distance r. queue follows the same sticky-
// scratch contract as BFSDistInto (see Scratch for pooled reuse).
func (f *Frozen) BallInto(center, radius int, dist []int32, queue *[]int32) int {
	var local []int32
	if queue == nil {
		queue = &local
	}
	q := (*queue)[:0]
	dist[center] = 0
	q = append(q, int32(center))
	reached := 1
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := dist[u]
		if radius >= 0 && int(du) >= radius {
			continue
		}
		for _, v := range f.Out(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				reached++
				q = append(q, v)
			}
		}
		for _, v := range f.In(int(u)) {
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
func (f *Frozen) BFSReverseDistInto(dst, bound int, dist []int32, queue *[]int32) int {
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
		for _, u := range f.In(int(v)) {
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
