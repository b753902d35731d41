package core

import (
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// walkProber answers the §6 "ranges on hops" queries: is there a *walk*
// (vertices may repeat) from u to v whose length lies in [lo, hi]?
//
// Shortest-path distances cannot answer a lower bound, so the prober
// runs a layered frontier expansion up to hi steps and records, per
// node, a 64-bit mask of reachable walk lengths (hence the
// pattern.MaxRangeBound limit of 63). Masks are cached per (endpoint,
// direction, color) in the source-major / target-major access patterns
// the matching fixpoint generates.
type walkProber struct {
	f        *graph.Frozen
	fwd, bwd walkCache
}

type walkCache struct {
	node  int
	color string
	valid bool
	mask  []uint64
	cur   []int32
	next  []int32
	inCur []bool
}

func newWalkProber(f *graph.Frozen) *walkProber { return &walkProber{f: f} }

// rangeMask has bits lo..hi set.
func rangeMask(lo, hi int) uint64 {
	if hi > 63 {
		hi = 63
	}
	if lo < 0 {
		lo = 0
	}
	var m uint64
	for b := lo; b <= hi; b++ {
		m |= 1 << uint(b)
	}
	return m
}

// WalkWithin returns the smallest walk length in [lo, hi] from u to v
// (color-restricted when color is non-empty), or -1. preferBackward
// hints which frontier cache to build on a miss: target-major sweeps
// (fixed v) should pass true.
func (w *walkProber) WalkWithin(u, v, lo, hi int, color string, preferBackward bool) int {
	if hi > pattern.MaxRangeBound {
		hi = pattern.MaxRangeBound
	}
	if lo < 1 {
		lo = 1
	}
	if lo > hi {
		return -1
	}
	var mask uint64
	switch {
	case w.fwd.valid && w.fwd.node == u && w.fwd.color == color:
		mask = w.fwd.mask[v]
	case w.bwd.valid && w.bwd.node == v && w.bwd.color == color:
		mask = w.bwd.mask[u]
	case preferBackward:
		w.build(&w.bwd, v, color, true)
		mask = w.bwd.mask[u]
	default:
		w.build(&w.fwd, u, color, false)
		mask = w.fwd.mask[v]
	}
	bits := mask & rangeMask(lo, hi)
	if bits == 0 {
		return -1
	}
	// Lowest set bit index is the witness length.
	for b := lo; b <= hi; b++ {
		if bits&(1<<uint(b)) != 0 {
			return b
		}
	}
	return -1
}

// build runs the layered expansion from node (over in-edges when reverse)
// for MaxRangeBound steps, filling c.mask.
func (w *walkProber) build(c *walkCache, node int, color string, reverse bool) {
	n := w.f.N()
	if c.mask == nil || len(c.mask) != n {
		c.mask = make([]uint64, n)
		c.cur = make([]int32, 0, n)
		c.next = make([]int32, 0, n)
		c.inCur = make([]bool, n)
	} else {
		for i := range c.mask {
			c.mask[i] = 0
		}
	}
	c.node = node
	c.color = color
	c.valid = true

	cur := c.cur[:0]
	cur = append(cur, int32(node))
	for step := 1; step <= pattern.MaxRangeBound && len(cur) > 0; step++ {
		next := c.next[:0]
		for _, x := range cur {
			var nbrs []int32
			if reverse {
				nbrs = w.f.In(int(x))
			} else {
				nbrs = w.f.Out(int(x))
			}
			for _, y := range nbrs {
				if color != "" {
					var ec string
					if reverse {
						ec = w.f.Color(int(y), int(x))
					} else {
						ec = w.f.Color(int(x), int(y))
					}
					if ec != color {
						continue
					}
				}
				if !c.inCur[y] {
					c.inCur[y] = true
					next = append(next, y)
				}
			}
		}
		for _, y := range next {
			c.inCur[y] = false
			c.mask[y] |= 1 << uint(step)
		}
		cur, c.next = next, cur
	}
	c.cur = cur
}

// Invalidate drops cached frontiers after graph mutation.
func (w *walkProber) Invalidate() {
	w.fwd.valid = false
	w.bwd.valid = false
}
