// Package simulation holds plain graph simulation in the style of
// Henzinger, Henzinger and Kopke (FOCS 1995): the special case of bounded
// simulation in which every pattern edge has bound 1, so pattern edges map
// to single data edges (paper §2.2, remark 2). The fixpoint itself is
// internal/core's, run without a distance oracle; this package keeps the
// RunFrozen entry point and the textbook references tests compare the
// kernel against.
package simulation

import (
	"context"
	"fmt"

	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// RunFrozen computes the maximum plain simulation of p in f. The returned
// relation lists, per pattern node, the sorted data nodes that simulate
// it; ok reports whether every pattern node kept at least one match.
// Patterns must have all edge bounds equal to 1. ctx is polled inside the
// fixpoint, and a cancelled context aborts with ctx.Err().
func RunFrozen(ctx context.Context, p *pattern.Pattern, f *graph.Frozen) (rel [][]int32, ok bool, err error) {
	if !p.AllBoundsOne() {
		return nil, false, fmt.Errorf("simulation: pattern has a bound != 1")
	}
	res, err := core.MatchOpts(ctx, p, nil, nil, nil, core.MatchOptions{Frozen: f})
	if err != nil {
		return nil, false, err
	}
	return res.Relation(), res.OK(), nil
}

func colorOK(f *graph.Frozen, u, v int, want string) bool {
	return want == "" || f.Color(u, v) == want
}

// IsSimulation verifies that rel is a plain simulation of p in f: every
// pair satisfies its predicate and every pattern edge leaving its
// pattern node has a successor witness in rel. It does not check
// maximality; the incremental watchers' fuzz target and tests use it as
// an independent oracle, the child-only counterpart of topo.IsDualSim.
func IsSimulation(p *pattern.Pattern, f *graph.Frozen, rel [][]int32) bool {
	if len(rel) != p.N() {
		return false
	}
	n := f.N()
	in := make([][]bool, p.N())
	for u := range in {
		in[u] = make([]bool, n)
		for _, x := range rel[u] {
			if x < 0 || int(x) >= n {
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
		}
	}
	return true
}

// RunNaive is the textbook fixpoint: repeatedly delete pairs (u, x) for
// which some pattern edge has no witness, until stable. It shares no code
// with the counter/worklist kernel behind RunFrozen, which tests compare
// against it.
func RunNaive(p *pattern.Pattern, f *graph.Frozen) (rel [][]int32, ok bool, err error) {
	if !p.AllBoundsOne() {
		return nil, false, fmt.Errorf("simulation: pattern has a bound != 1")
	}
	np, n := p.N(), f.N()
	sim := make([][]bool, np)
	for u := 0; u < np; u++ {
		sim[u] = make([]bool, n)
		for x := 0; x < n; x++ {
			sim[u][x] = p.Pred(u).Match(f.Attr(x))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < np; u++ {
			for x := 0; x < n; x++ {
				if !sim[u][x] {
					continue
				}
				for _, eid := range p.Out(u) {
					e := p.EdgeAt(int(eid))
					found := false
					for _, y := range f.Out(x) {
						if sim[e.To][y] && colorOK(f, x, int(y), e.Color) {
							found = true
							break
						}
					}
					if !found {
						sim[u][x] = false
						changed = true
						break
					}
				}
			}
		}
	}
	rel = make([][]int32, np)
	ok = true
	for u := 0; u < np; u++ {
		for x := 0; x < n; x++ {
			if sim[u][x] {
				rel[u] = append(rel[u], int32(x))
			}
		}
		if len(rel[u]) == 0 {
			ok = false
		}
	}
	return rel, ok, nil
}
