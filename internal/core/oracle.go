// Package core implements bounded graph simulation — the paper's primary
// contribution. Match computes the unique maximum match of a pattern in a
// data graph (Theorem 3.1) in O(|V||E| + |Ep||V|² + |Vp||V|) time using a
// pluggable distance oracle; the three oracles in this file reproduce the
// paper's three variants: the distance matrix (Match), plain BFS (BFS) and
// 2-hop-filtered BFS (2-hop), compared in Exp-2.
package core

import (
	"context"

	"gpm/internal/graph"
	"gpm/internal/matrix"
	"gpm/internal/pll"
	"gpm/internal/twohop"
)

// DistOracle answers the one distance query Match needs: the length of
// the shortest *nonempty* path from u to v (≥ 1; a node reaches itself
// only through a cycle). It returns -1 when no such path exists or when
// the shortest one is longer than bound (bound < 0 means unbounded, the
// pattern's "*"). Paths are colour-blind: the fixpoint never asks an
// oracle about a coloured or ranged pattern edge, whose witness is a
// labelled walk it sweeps instead (sweep.go).
//
// Oracles may cache per-source/per-target state and are not safe for
// concurrent use unless documented otherwise.
type DistOracle interface {
	NonemptyDistWithin(u, v, bound int) int
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
//
// Unlike the BFS-backed oracles, a MatrixOracle is safe for concurrent
// queries as long as the matrix is not mutated meanwhile: it only reads
// the matrix.
type MatrixOracle struct {
	m *matrix.Matrix
}

// NewMatrixOracle wraps an existing matrix; the matrix must describe g.
func NewMatrixOracle(g *graph.Graph, m *matrix.Matrix) *MatrixOracle {
	return &MatrixOracle{m: m}
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
func (o *MatrixOracle) NonemptyDistWithin(u, v, bound int) int {
	return clampToBound(o.m.NonemptyDist(u, v), bound)
}

// bfsCache holds one full BFS frontier keyed by (node, direction).
type bfsCache struct {
	node    int
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

func (c *bfsCache) reset(node int, n int) {
	c.ensure(n)
	for i := range c.dist {
		c.dist[i] = -1
	}
	c.node = node
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
func (o *BFSOracle) NonemptyDistWithin(u, v, bound int) int {
	if u == v {
		return clampToBound(o.cycleLen(u), bound)
	}
	return clampToBound(o.pairDist(u, v), bound)
}

func (o *BFSOracle) pairDist(u, v int) int {
	if o.fwd.valid && o.fwd.node == u {
		o.lastU, o.lastV = u, v
		return int(o.fwd.dist[v])
	}
	if o.bwd.valid && o.bwd.node == v {
		o.lastU, o.lastV = u, v
		return int(o.bwd.dist[u])
	}
	// Miss: build the frontier for the endpoint that repeated, guessing
	// forward when neither did.
	if v == o.lastV && u != o.lastU {
		o.buildBackward(v)
		o.lastU, o.lastV = u, v
		return int(o.bwd.dist[u])
	}
	o.buildForward(u)
	o.lastU, o.lastV = u, v
	return int(o.fwd.dist[v])
}

// cycleLen returns the shortest nonempty cycle through u: one backward
// frontier to u, then the best successor.
func (o *BFSOracle) cycleLen(u int) int {
	if !(o.bwd.valid && o.bwd.node == u) {
		o.buildBackward(u)
	}
	best := -1
	for _, w := range o.frozen().Out(u) {
		if dw := o.bwd.dist[w]; dw >= 0 && (best < 0 || int(dw)+1 < best) {
			best = int(dw) + 1
		}
	}
	return best
}

func (o *BFSOracle) buildForward(u int) {
	o.fwd.reset(u, o.frozen().N())
	bfsDirected(o.frozen(), u, false, o.fwd.dist, &o.fwd.scratch)
}

func (o *BFSOracle) buildBackward(v int) {
	o.bwd.reset(v, o.frozen().N())
	bfsDirected(o.frozen(), v, true, o.bwd.dist, &o.bwd.scratch)
}

// bfsDirected runs an unbounded BFS from src into dist (pre-filled -1)
// over the frozen snapshot, following in-edges when reverse is true.
func bfsDirected(f *graph.Frozen, src int, reverse bool, dist []int32, scratch *[]int32) {
	queue := (*scratch)[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		dx := dist[x]
		for _, y := range arcs(f, x, reverse) {
			if dist[y] >= 0 {
				continue
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
// distance.
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
func (o *TwoHopOracle) NonemptyDistWithin(u, v, bound int) int {
	if !o.idx.ReachableNonempty(o.bfs.frozen(), u, v) {
		return -1
	}
	return o.bfs.NonemptyDistWithin(u, v, bound)
}

// PLLOracle answers queries from a pruned-landmark labelling (package
// pll): exact distances in label-merge time with memory that scales
// with the graph's hub structure instead of |V|² — the oracle that
// takes bounded simulation to million-node graphs when an engine opts in
// with WithOracle(OraclePLL).
//
// A PLLOracle is single-goroutine state: its probe caches expand one
// endpoint's label into a hub-indexed distance array, so Match's
// endpoint-major sweeps cost one array lookup per label entry of the
// swept endpoint. For parallel matching each worker takes a
// CloneForWorker, which shares the labelling and the frozen snapshot but
// owns its probe caches.
type PLLOracle struct {
	f        *graph.Frozen // shared, immutable
	idx      *pll.Index    // shared, immutable
	fwd, bwd pllProbe
	lastU    int
	lastV    int
}

// NewPLLOracleFrozen wraps a prebuilt labelling over the snapshot it
// was built from.
func NewPLLOracleFrozen(f *graph.Frozen, idx *pll.Index) *PLLOracle {
	return &PLLOracle{f: f, idx: idx, lastU: -1, lastV: -1}
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
func (o *PLLOracle) Index() *pll.Index { return o.idx }

// CloneForWorker implements WorkerCloner: the clone shares the
// labelling but owns its probe caches.
func (o *PLLOracle) CloneForWorker() DistOracle {
	return NewPLLOracleFrozen(o.f, o.idx)
}

// NonemptyDistWithin implements DistOracle.
func (o *PLLOracle) NonemptyDistWithin(u, v, bound int) int {
	if bound == 0 {
		return -1 // nonempty paths have length >= 1
	}
	if u == v {
		return clampToBound(o.cycleLen(u, bound), bound)
	}
	return clampToBound(o.pairDist(u, v, bound), bound)
}

func (o *PLLOracle) pairDist(u, v, bound int) int {
	if o.bwd.valid && o.bwd.node == v {
		o.lastU, o.lastV = u, v
		return o.scanOut(u, bound)
	}
	if o.fwd.valid && o.fwd.node == u {
		o.lastU, o.lastV = u, v
		return o.scanIn(v, bound)
	}
	// Miss: expand the endpoint that repeated, guessing forward when
	// neither did (the same heuristic as BFSOracle — Match's loops fix
	// one endpoint and sweep the other).
	if v == o.lastV && u != o.lastU {
		o.loadBackward(v)
		o.lastU, o.lastV = u, v
		return o.scanOut(u, bound)
	}
	o.loadForward(u)
	o.lastU, o.lastV = u, v
	return o.scanIn(v, bound)
}

// cycleLen returns the shortest nonempty cycle through u: the backward
// probe caches distances to u, then every successor w contributes
// 1 + d(w, u).
func (o *PLLOracle) cycleLen(u, bound int) int {
	if !(o.bwd.valid && o.bwd.node == u) {
		o.loadBackward(u)
	}
	inner := -1
	if bound > 0 {
		inner = bound - 1
	}
	best := -1
	for _, w := range o.f.Out(u) {
		if dw := o.scanOut(int(w), inner); dw >= 0 && (best < 0 || dw+1 < best) {
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
func (o *PLLOracle) scanOut(u, bound int) int {
	idx := o.idx
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
func (o *PLLOracle) scanIn(v, bound int) int {
	idx := o.idx
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

func (o *PLLOracle) loadForward(u int) {
	o.fwd.reset(o.idx.N())
	for _, w := range o.idx.OutLabel(u) {
		h := pll.Hub(w)
		o.fwd.dist[h] = o.idx.OutDist(u, w)
		o.fwd.touched = append(o.fwd.touched, h)
	}
	o.fwd.node, o.fwd.valid = u, true
}

func (o *PLLOracle) loadBackward(v int) {
	o.bwd.reset(o.idx.N())
	for _, w := range o.idx.InLabel(v) {
		h := pll.Hub(w)
		o.bwd.dist[h] = o.idx.InDist(v, w)
		o.bwd.touched = append(o.bwd.touched, h)
	}
	o.bwd.node, o.bwd.valid = v, true
}

// pllProbe caches one endpoint's label expanded into a hub-indexed
// exact-distance array, reset through a touched list so switching
// endpoints costs O(label), not O(|V|). The labels' self entries make
// the direct cases (v a hub of u, u a hub of v) fall out of the same
// array lookups with no special-casing.
type pllProbe struct {
	node    int
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
