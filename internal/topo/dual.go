package topo

import (
	"context"

	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// DualSim computes the maximum dual simulation of p in f (Ma et al.,
// §3.1): the greatest relation S such that for every (u, x) ∈ S, every
// pattern edge (u, u′) has a data edge (x, y) with (u′, y) ∈ S — the
// child constraint of plain simulation — and every pattern edge (u″, u)
// has a data edge (z, x) with (u″, z) ∈ S — the parent constraint dual
// simulation adds. The returned relation lists, per pattern node, the
// sorted data nodes that dual-simulate it; ok reports whether every
// pattern node kept at least one match. Patterns must have all edge
// bounds equal to 1.
//
// The fixpoint is internal/core's counter/worklist kernel run without a
// distance oracle and with the parent constraints on
// (core.MatchOptions.Dual). Its initialisation shards across
// opts.Workers; the greatest fixpoint is unique, so every worker count
// returns bit-identical relations.
func DualSim(ctx context.Context, p *pattern.Pattern, f *graph.Frozen, opts Options) (rel [][]int32, ok bool, err error) {
	res, err := core.MatchOpts(ctx, p, nil, nil, nil, core.MatchOptions{Workers: opts.Workers, Frozen: f, Dual: true})
	if err != nil {
		return nil, false, err
	}
	return res.Relation(), res.OK(), nil
}

// IsDualSim verifies that rel is a dual simulation of p in f: every pair
// satisfies its predicate, every pattern edge leaving its pattern node
// has a successor witness in rel, and every pattern edge entering it has
// a predecessor witness. It does not check maximality; the fuzz target
// and tests use it as an independent oracle for DualSim's output.
func IsDualSim(p *pattern.Pattern, f *graph.Frozen, rel [][]int32) bool {
	if len(rel) != p.N() {
		return false
	}
	n := f.N()
	in := make([][]bool, p.N())
	for u := range in {
		in[u] = make([]bool, n)
		for _, x := range rel[u] {
			if int(x) >= n || x < 0 {
				return false
			}
			in[u][x] = true
		}
	}
	for u := 0; u < p.N(); u++ {
		for _, x := range rel[u] {
			if !p.Pred(u).Match(f.Attr(int(x))) {
				return false
			}
			for _, eid := range p.Out(u) {
				e := p.EdgeAt(int(eid))
				found := false
				for _, y := range f.Out(int(x)) {
					if in[e.To][y] && colorOK(f, int(x), int(y), e.Color) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			for _, eid := range p.In(u) {
				e := p.EdgeAt(int(eid))
				found := false
				for _, z := range f.In(int(x)) {
					if in[e.From][z] && colorOK(f, int(z), int(x), e.Color) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
	}
	return true
}

// NaiveDualSim is the textbook dual-simulation fixpoint: it rescans every
// pair, deleting those that violate a child or parent constraint, until
// nothing changes, reading every pattern edge as bound 1. keep, when
// non-nil, restricts the data graph to the nodes it accepts (strong
// simulation's ball). It shares no code with the kernel behind DualSim,
// which tests and fuzz targets referee against it.
func NaiveDualSim(p *pattern.Pattern, f *graph.Frozen, keep func(x int) bool) (rel [][]int32, ok bool) {
	np, n := p.N(), f.N()
	sim := make([][]bool, np)
	for u := 0; u < np; u++ {
		sim[u] = make([]bool, n)
		for x := 0; x < n; x++ {
			sim[u][x] = (keep == nil || keep(x)) && p.Pred(u).Match(f.Attr(x))
		}
	}
	// witnessed reports whether x has a neighbour in sim[u] over arcs of
	// the given colour: out-arcs for a child, in-arcs for a parent.
	witnessed := func(x, u int, color string, parent bool) bool {
		adj := f.Out(x)
		if parent {
			adj = f.In(x)
		}
		for _, y := range adj {
			from, to := x, int(y)
			if parent {
				from, to = to, from
			}
			if sim[u][y] && colorOK(f, from, to, color) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < np; u++ {
			for x := 0; x < n; x++ {
				if !sim[u][x] {
					continue
				}
				live := true
				for _, eid := range p.Out(u) {
					e := p.EdgeAt(int(eid))
					live = live && witnessed(x, e.To, e.Color, false)
				}
				for _, eid := range p.In(u) {
					e := p.EdgeAt(int(eid))
					live = live && witnessed(x, e.From, e.Color, true)
				}
				if !live {
					sim[u][x] = false
					changed = true
				}
			}
		}
	}
	return collect(sim)
}
