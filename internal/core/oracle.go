// Package core implements bounded graph simulation — the paper's primary
// contribution. Match computes the unique maximum match of a pattern in a
// data graph (Theorem 3.1) in O(|V||E| + |Ep||V|² + |Vp||V|) time using a
// pluggable distance oracle; the three oracles in this file reproduce the
// paper's three variants: the distance matrix (Match), plain BFS (BFS) and
// 2-hop-filtered BFS (2-hop), compared in Exp-2.
package core

import (
	"context"
	"sync"

	"gpm/internal/graph"
	"gpm/internal/matrix"
	"gpm/internal/pll"
	"gpm/internal/twohop"
)

// DistOracle answers the distance queries Match needs: the length of the
// shortest *nonempty* path from u to v (≥ 1; a node reaches itself only
// through a cycle), restricted to edges of the given color when color is
// non-empty. It returns -1 when no such path exists or when the shortest
// one is longer than bound (bound < 0 means unbounded, the pattern's "*").
//
// Oracles may cache per-source/per-target state and are not safe for
// concurrent use unless documented otherwise.
type DistOracle interface {
	NonemptyDistWithin(u, v, bound int, color string) int
}

// WorkerCloner is implemented by oracles that can hand out additional
// instances for concurrent workers. A clone shares the oracle's immutable
// indexes (distance matrix, 2-hop labelling, frozen adjacency) but owns
// any mutable per-query caches, so each worker of the parallel fixpoint
// probes its clone without locking. Oracles that are themselves safe for
// concurrent use may return themselves.
type WorkerCloner interface {
	CloneForWorker() DistOracle
}

// cloneForWorker returns a worker-private view of o, or nil when o cannot
// be shared across goroutines (unknown user-supplied oracle): callers
// must then fall back to sequential matching.
func cloneForWorker(o DistOracle) DistOracle {
	if c, ok := o.(WorkerCloner); ok {
		return c.CloneForWorker()
	}
	return nil
}

func clampToBound(d, bound int) int {
	if d < 0 || (bound >= 0 && d > bound) {
		return -1
	}
	return d
}

// MatrixOracle answers queries in O(1) from a precomputed all-pairs
// distance matrix — the oracle behind the paper's main Match algorithm.
// Per-color sub-matrices for the edge-color extension are built lazily.
//
// Unlike the BFS-backed oracles, a MatrixOracle is safe for concurrent
// queries as long as the graph and matrix are not mutated meanwhile: the
// plain-edge path reads the immutable matrix only, and the lazy
// color-submatrix cache is guarded by a mutex around a per-color
// sync.Once, so distinct colors build concurrently while racing builders
// of the same color coalesce into one build.
type MatrixOracle struct {
	g       *graph.Graph
	m       *matrix.Matrix
	colorMu sync.Mutex
	colors  map[string]*colorEntry // distance matrices of color subgraphs
}

// colorEntry coalesces concurrent builds of one color submatrix.
type colorEntry struct {
	once sync.Once
	m    *matrix.Matrix
}

// NewMatrixOracle wraps an existing matrix; the matrix must describe g.
func NewMatrixOracle(g *graph.Graph, m *matrix.Matrix) *MatrixOracle {
	return &MatrixOracle{g: g, m: m}
}

// BuildMatrixOracle computes the distance matrix of g and wraps it. This
// is the paper's preprocessing step (Match, line 1).
func BuildMatrixOracle(g *graph.Graph) *MatrixOracle {
	return NewMatrixOracle(g, matrix.New(g))
}

// Matrix exposes the underlying distance matrix.
func (o *MatrixOracle) Matrix() *matrix.Matrix { return o.m }

// CloneForWorker implements WorkerCloner: the oracle itself is safe for
// concurrent queries.
func (o *MatrixOracle) CloneForWorker() DistOracle { return o }

// NonemptyDistWithin implements DistOracle.
func (o *MatrixOracle) NonemptyDistWithin(u, v, bound int, color string) int {
	m := o.m
	if color != "" {
		m = o.colorMatrix(color)
	}
	return clampToBound(m.NonemptyDist(u, v), bound)
}

func (o *MatrixOracle) colorMatrix(color string) *matrix.Matrix {
	o.colorMu.Lock()
	if o.colors == nil {
		o.colors = make(map[string]*colorEntry)
	}
	e, ok := o.colors[color]
	if !ok {
		e = &colorEntry{}
		o.colors[color] = e
	}
	o.colorMu.Unlock()
	e.once.Do(func() {
		// Build the color subgraph once and take its matrix; matrix.New
		// itself fans the per-source BFS across all CPUs. Other colors
		// build concurrently — only same-color builders wait here.
		sub := graph.New(o.g.N())
		o.g.Edges(func(u, v int) {
			if c, _ := o.g.Color(u, v); c == color {
				sub.AddEdge(u, v)
			}
		})
		e.m = matrix.New(sub)
	})
	return e.m
}

// InvalidateColors drops the cached color submatrices. The engine layer
// calls it after edge updates: the main matrix is maintained in place by
// DynMatrix, but color submatrices are rebuilt on demand.
func (o *MatrixOracle) InvalidateColors() {
	o.colorMu.Lock()
	o.colors = nil
	o.colorMu.Unlock()
}

// bfsCache holds one full BFS frontier keyed by (node, direction, color).
type bfsCache struct {
	node    int
	color   string
	valid   bool
	dist    []int32
	scratch []int32
}

func (c *bfsCache) ensure(n int) {
	if c.dist == nil {
		c.dist = make([]int32, n)
		c.scratch = make([]int32, 0, n)
	}
}

func (c *bfsCache) reset(node int, color string, n int) {
	c.ensure(n)
	for i := range c.dist {
		c.dist[i] = -1
	}
	c.node = node
	c.color = color
	c.valid = true
}

// BFSOracle answers queries by breadth-first search over a frozen CSR
// snapshot, caching the last forward frontier (distances from one source)
// and the last backward frontier (distances to one target). Match's loops
// fix one endpoint and sweep the other, so almost every query after the
// first per group is a cache hit; this is the paper's "BFS" variant.
//
// A BFSOracle is single-goroutine state; for parallel matching each
// worker takes a CloneForWorker, which shares the snapshot but owns its
// frontier caches.
type BFSOracle struct {
	g        *graph.Graph  // nil for snapshot-only oracles
	f        *graph.Frozen // lazily frozen from g when nil
	fwd, bwd bfsCache
	lastU    int
	lastV    int
}

// NewBFSOracle returns a BFS-based oracle over g. The graph is frozen on
// first use; after mutating g, call Invalidate to re-freeze and drop
// cached frontiers.
func NewBFSOracle(g *graph.Graph) *BFSOracle {
	return &BFSOracle{g: g, lastU: -1, lastV: -1}
}

// NewBFSOracleFrozen returns a BFS oracle over an existing immutable
// snapshot, skipping the freeze NewBFSOracle would pay. The engine layer
// uses this to serve per-query oracles from its cached snapshot.
func NewBFSOracleFrozen(f *graph.Frozen) *BFSOracle {
	return &BFSOracle{f: f, lastU: -1, lastV: -1}
}

// CloneForWorker implements WorkerCloner: the clone shares the frozen
// snapshot and starts with empty frontier caches.
func (o *BFSOracle) CloneForWorker() DistOracle {
	return NewBFSOracleFrozen(o.frozen())
}

func (o *BFSOracle) frozen() *graph.Frozen {
	if o.f == nil {
		o.f = o.g.Freeze()
	}
	return o.f
}

// Invalidate drops cached frontiers and the frozen snapshot; callers must
// invoke it after the graph changes. Snapshot-only oracles (built with
// NewBFSOracleFrozen) keep their snapshot — it is immutable by contract.
func (o *BFSOracle) Invalidate() {
	o.fwd.valid = false
	o.bwd.valid = false
	o.lastU, o.lastV = -1, -1
	if o.g != nil {
		o.f = nil
	}
}

// NonemptyDistWithin implements DistOracle.
func (o *BFSOracle) NonemptyDistWithin(u, v, bound int, color string) int {
	if u == v {
		return clampToBound(o.cycleLen(u, color), bound)
	}
	d := o.pairDist(u, v, color)
	return clampToBound(d, bound)
}

func (o *BFSOracle) pairDist(u, v int, color string) int {
	if o.fwd.valid && o.fwd.node == u && o.fwd.color == color {
		o.lastU, o.lastV = u, v
		return int(o.fwd.dist[v])
	}
	if o.bwd.valid && o.bwd.node == v && o.bwd.color == color {
		o.lastU, o.lastV = u, v
		return int(o.bwd.dist[u])
	}
	// Miss: build the frontier for the endpoint that repeated, guessing
	// forward when neither did.
	if v == o.lastV && u != o.lastU {
		o.buildBackward(v, color)
		o.lastU, o.lastV = u, v
		return int(o.bwd.dist[u])
	}
	o.buildForward(u, color)
	o.lastU, o.lastV = u, v
	return int(o.fwd.dist[v])
}

// cycleLen returns the shortest nonempty cycle through u: one backward
// frontier to u, then the best successor.
func (o *BFSOracle) cycleLen(u int, color string) int {
	if !(o.bwd.valid && o.bwd.node == u && o.bwd.color == color) {
		o.buildBackward(u, color)
	}
	f := o.frozen()
	best := -1
	for _, w := range f.Out(u) {
		if color != "" && f.Color(u, int(w)) != color {
			continue
		}
		if dw := o.bwd.dist[w]; dw >= 0 && (best < 0 || int(dw)+1 < best) {
			best = int(dw) + 1
		}
	}
	return best
}

func (o *BFSOracle) buildForward(u int, color string) {
	o.fwd.reset(u, color, o.frozen().N())
	bfsDirected(o.frozen(), u, color, false, o.fwd.dist, &o.fwd.scratch)
}

func (o *BFSOracle) buildBackward(v int, color string) {
	o.bwd.reset(v, color, o.frozen().N())
	bfsDirected(o.frozen(), v, color, true, o.bwd.dist, &o.bwd.scratch)
}

// bfsDirected runs an unbounded BFS from src into dist (pre-filled -1)
// over the frozen snapshot, following in-edges when reverse is true and,
// when color is non-empty, only edges of that color.
func bfsDirected(f *graph.Frozen, src int, color string, reverse bool, dist []int32, scratch *[]int32) {
	queue := (*scratch)[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		dx := dist[x]
		var nbrs []int32
		if reverse {
			nbrs = f.In(int(x))
		} else {
			nbrs = f.Out(int(x))
		}
		for _, y := range nbrs {
			if dist[y] >= 0 {
				continue
			}
			if color != "" {
				var c string
				if reverse {
					c = f.Color(int(y), int(x))
				} else {
					c = f.Color(int(x), int(y))
				}
				if c != color {
					continue
				}
			}
			dist[y] = dx + 1
			queue = append(queue, y)
		}
	}
	*scratch = queue
}

// TwoHopOracle is the paper's "2-hop" variant: a 2-hop reachability
// labelling filters out unreachable pairs in label-intersection time, and
// only reachable pairs fall through to (cached) BFS for the exact
// distance. Labels ignore colors, which keeps them a sound filter for
// color-restricted queries.
type TwoHopOracle struct {
	idx *twohop.Index
	bfs *BFSOracle
}

// NewTwoHopOracle wraps a prebuilt index over g.
func NewTwoHopOracle(g *graph.Graph, idx *twohop.Index) *TwoHopOracle {
	return &TwoHopOracle{idx: idx, bfs: NewBFSOracle(g)}
}

// NewTwoHopOracleFrozen wraps a prebuilt index over an existing frozen
// snapshot, skipping the freeze NewTwoHopOracle would pay on first use.
func NewTwoHopOracleFrozen(f *graph.Frozen, idx *twohop.Index) *TwoHopOracle {
	return &TwoHopOracle{idx: idx, bfs: NewBFSOracleFrozen(f)}
}

// BuildTwoHopOracle constructs the labelling for g and wraps it.
func BuildTwoHopOracle(g *graph.Graph) *TwoHopOracle {
	return NewTwoHopOracle(g, twohop.Build(g))
}

// Index exposes the underlying 2-hop labelling.
func (o *TwoHopOracle) Index() *twohop.Index { return o.idx }

// CloneForWorker implements WorkerCloner: the clone shares the labelling
// and the frozen snapshot but owns its BFS frontier caches.
func (o *TwoHopOracle) CloneForWorker() DistOracle {
	return &TwoHopOracle{idx: o.idx, bfs: NewBFSOracleFrozen(o.bfs.frozen())}
}

// NonemptyDistWithin implements DistOracle.
func (o *TwoHopOracle) NonemptyDistWithin(u, v, bound int, color string) int {
	if !o.idx.ReachableNonempty(o.bfs.frozen(), u, v) {
		return -1
	}
	return o.bfs.NonemptyDistWithin(u, v, bound, color)
}

// PLLOracle answers queries from a pruned-landmark labelling (package
// pll): exact distances in label-merge time with memory that scales
// with the graph's hub structure instead of |V|² — the oracle that
// takes bounded simulation to million-node graphs when an engine opts in
// with WithOracle(OraclePLL). Per-color sub-labelings are
// built lazily the way MatrixOracle builds color submatrices.
//
// A PLLOracle is single-goroutine state: its probe caches expand one
// endpoint's label into a hub-indexed distance array, so Match's
// endpoint-major sweeps cost one array lookup per label entry of the
// swept endpoint. For parallel matching each worker takes a
// CloneForWorker, which shares the labelling, the frozen snapshot and
// the color sub-labelings but owns its probe caches.
type PLLOracle struct {
	sh       *pllShared
	fwd, bwd pllProbe
	lastU    int
	lastV    int
}

// pllShared is the immutable-after-build state every worker clone of a
// PLLOracle shares.
type pllShared struct {
	f       *graph.Frozen
	idx     *pll.Index
	colorMu sync.Mutex
	colors  map[string]*pllColorEntry // labellings of color subgraphs
}

// pllColorEntry coalesces concurrent builds of one color sub-labelling.
type pllColorEntry struct {
	once sync.Once
	idx  *pll.Index
}

// NewPLLOracleFrozen wraps a prebuilt labelling over the snapshot it
// was built from.
func NewPLLOracleFrozen(f *graph.Frozen, idx *pll.Index) *PLLOracle {
	return &PLLOracle{sh: &pllShared{f: f, idx: idx}, lastU: -1, lastV: -1}
}

// BuildPLLOracle freezes g and constructs its pruned-landmark
// labelling. It errors when g exceeds pll.MaxNodes or when ctx is
// cancelled mid-build.
func BuildPLLOracle(ctx context.Context, g *graph.Graph) (*PLLOracle, error) {
	f := g.Freeze()
	idx, err := pll.Build(ctx, f, pll.AutoOptions(f))
	if err != nil {
		return nil, err
	}
	return NewPLLOracleFrozen(f, idx), nil
}

// Index exposes the underlying labelling.
func (o *PLLOracle) Index() *pll.Index { return o.sh.idx }

// CloneForWorker implements WorkerCloner: the clone shares the
// labelling and the color sub-labelings but owns its probe caches.
func (o *PLLOracle) CloneForWorker() DistOracle {
	return &PLLOracle{sh: o.sh, lastU: -1, lastV: -1}
}

// NonemptyDistWithin implements DistOracle.
func (o *PLLOracle) NonemptyDistWithin(u, v, bound int, color string) int {
	if bound == 0 {
		return -1 // nonempty paths have length >= 1
	}
	idx := o.sh.idx
	if color != "" {
		idx = o.sh.colorIndex(color)
	}
	if u == v {
		return clampToBound(o.cycleLen(u, bound, color, idx), bound)
	}
	return clampToBound(o.pairDist(u, v, bound, color, idx), bound)
}

func (o *PLLOracle) pairDist(u, v, bound int, color string, idx *pll.Index) int {
	if o.bwd.valid && o.bwd.node == v && o.bwd.color == color {
		o.lastU, o.lastV = u, v
		return o.scanOut(u, bound, idx)
	}
	if o.fwd.valid && o.fwd.node == u && o.fwd.color == color {
		o.lastU, o.lastV = u, v
		return o.scanIn(v, bound, idx)
	}
	// Miss: expand the endpoint that repeated, guessing forward when
	// neither did (the same heuristic as BFSOracle — Match's loops fix
	// one endpoint and sweep the other).
	if v == o.lastV && u != o.lastU {
		o.loadBackward(v, color, idx)
		o.lastU, o.lastV = u, v
		return o.scanOut(u, bound, idx)
	}
	o.loadForward(u, color, idx)
	o.lastU, o.lastV = u, v
	return o.scanIn(v, bound, idx)
}

// cycleLen returns the shortest nonempty cycle through u: the backward
// probe caches distances to u, then every color-compatible successor w
// contributes 1 + d(w, u).
func (o *PLLOracle) cycleLen(u, bound int, color string, idx *pll.Index) int {
	if !(o.bwd.valid && o.bwd.node == u && o.bwd.color == color) {
		o.loadBackward(u, color, idx)
	}
	inner := -1
	if bound > 0 {
		inner = bound - 1
	}
	f := o.sh.f
	best := -1
	for _, w := range f.Out(u) {
		if color != "" && f.Color(u, int(w)) != color {
			continue
		}
		if dw := o.scanOut(int(w), inner, idx); dw >= 0 && (best < 0 || dw+1 < best) {
			best = dw + 1
			if best == 1 {
				break
			}
		}
	}
	return best
}

// scanOut resolves d(u, bwd.node) by scanning u's out-label against the
// cached backward expansion, seeded with the bit-parallel root
// candidates (roots of complete blocks have no label entries, so the
// label merge alone would miss paths through them). The bounded fast
// path skips entries whose raw distance field alone exceeds the bound
// (saturated fields under-report, so the skip is safe) and stops once
// the running best hits 1, the minimum nonempty distance.
func (o *PLLOracle) scanOut(u, bound int, idx *pll.Index) int {
	best := idx.BPDistWithin(u, o.bwd.node, bound)
	if best >= 0 && best <= 1 {
		return best
	}
	bb := int32(bound)
	for _, w := range idx.OutLabel(u) {
		if bound >= 0 && pll.DistField(w) > bb {
			continue
		}
		td := o.bwd.dist[pll.Hub(w)]
		if td < 0 {
			continue
		}
		if c := int(idx.OutDist(u, w)) + int(td); best < 0 || c < best {
			best = c
			if best <= 1 {
				break
			}
		}
	}
	return best
}

// scanIn is scanOut mirrored: d(fwd.node, v) via v's in-label.
func (o *PLLOracle) scanIn(v, bound int, idx *pll.Index) int {
	best := idx.BPDistWithin(o.fwd.node, v, bound)
	if best >= 0 && best <= 1 {
		return best
	}
	bb := int32(bound)
	for _, w := range idx.InLabel(v) {
		if bound >= 0 && pll.DistField(w) > bb {
			continue
		}
		sd := o.fwd.dist[pll.Hub(w)]
		if sd < 0 {
			continue
		}
		if c := int(sd) + int(idx.InDist(v, w)); best < 0 || c < best {
			best = c
			if best <= 1 {
				break
			}
		}
	}
	return best
}

func (o *PLLOracle) loadForward(u int, color string, idx *pll.Index) {
	o.fwd.reset(o.sh.idx.N())
	for _, w := range idx.OutLabel(u) {
		h := pll.Hub(w)
		o.fwd.dist[h] = idx.OutDist(u, w)
		o.fwd.touched = append(o.fwd.touched, h)
	}
	o.fwd.node, o.fwd.color, o.fwd.valid = u, color, true
}

func (o *PLLOracle) loadBackward(v int, color string, idx *pll.Index) {
	o.bwd.reset(o.sh.idx.N())
	for _, w := range idx.InLabel(v) {
		h := pll.Hub(w)
		o.bwd.dist[h] = idx.InDist(v, w)
		o.bwd.touched = append(o.bwd.touched, h)
	}
	o.bwd.node, o.bwd.color, o.bwd.valid = v, color, true
}

// pllProbe caches one endpoint's label expanded into a hub-indexed
// exact-distance array, reset through a touched list so switching
// endpoints costs O(label), not O(|V|). The labels' self entries make
// the direct cases (v a hub of u, u a hub of v) fall out of the same
// array lookups with no special-casing.
type pllProbe struct {
	node    int
	color   string
	valid   bool
	dist    []int32
	touched []int32
}

func (c *pllProbe) reset(n int) {
	if c.dist == nil {
		c.dist = make([]int32, n)
		for i := range c.dist {
			c.dist[i] = -1
		}
		return
	}
	for _, h := range c.touched {
		c.dist[h] = -1
	}
	c.touched = c.touched[:0]
}

// colorIndex returns the labelling of the color-induced subgraph,
// building it on first use; same-color builders coalesce, distinct
// colors build concurrently.
func (s *pllShared) colorIndex(color string) *pll.Index {
	s.colorMu.Lock()
	if s.colors == nil {
		s.colors = make(map[string]*pllColorEntry)
	}
	e, ok := s.colors[color]
	if !ok {
		e = &pllColorEntry{}
		s.colors[color] = e
	}
	s.colorMu.Unlock()
	e.once.Do(func() {
		sub := graph.New(s.f.N())
		s.f.Edges(func(u, v int) {
			if s.f.Color(u, v) == color {
				sub.AddEdge(u, v)
			}
		})
		fz := sub.Freeze()
		// Background context: the sub-labelling is a shared cache that
		// outlives the query that happens to build it first, so one
		// caller's deadline must not poison it for everyone else.
		idx, err := pll.Build(context.Background(), fz, pll.AutoOptions(fz))
		if err != nil {
			// The subgraph has the node count of the main graph, whose
			// build already succeeded — unreachable.
			panic(err)
		}
		e.idx = idx
	})
	return e.idx
}

// EdgeOracle answers distance queries by direct adjacency scan over a
// frozen snapshot: it reports distance 1 when the edge (u, v) exists
// (color-compatible), and no witness otherwise — correct only for
// bound-1 probes, so it serves the all-bounds-one semantics (plain,
// dual and strong simulation), which need no path oracle: MatchOpts
// answers its fallback probes with it when called without an oracle,
// and the engine layer materialises their result graphs with it.
type EdgeOracle struct {
	f *graph.Frozen
}

// NewEdgeOracle wraps f as a bound-1 DistOracle.
func NewEdgeOracle(f *graph.Frozen) EdgeOracle { return EdgeOracle{f: f} }

// CloneForWorker implements WorkerCloner: the oracle holds no state.
func (o EdgeOracle) CloneForWorker() DistOracle { return o }

// NonemptyDistWithin reports 1 when edge (u, v) exists with a compatible
// color and the bound admits a length-1 path, -1 otherwise. Bounds
// beyond 1 are still answered by adjacency only: callers must only use
// this oracle with all-bounds-one patterns.
func (o EdgeOracle) NonemptyDistWithin(u, v, bound int, color string) int {
	if bound >= 0 && bound < 1 {
		return -1
	}
	for _, y := range o.f.Out(u) {
		if int(y) != v {
			continue
		}
		if color == "" || o.f.Color(u, v) == color {
			return 1
		}
	}
	return -1
}
