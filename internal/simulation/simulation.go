// Package simulation implements plain graph simulation in the style of
// Henzinger, Henzinger and Kopke (FOCS 1995): the special case of bounded
// simulation in which every pattern edge has bound 1, so pattern edges map
// to single data edges (paper §2.2, remark 2). It runs in
// O((|V|+|Vp|)(|E|+|Ep|)) time and serves both as a baseline and as a
// cross-check for the bounded algorithm.
package simulation

import (
	"context"
	"fmt"
	"sort"

	"gpm/internal/cancel"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// adjacency is the read-only graph view the fixpoint traverses; both the
// live *graph.Graph and the immutable *graph.Frozen satisfy it, so the
// engine can run simulation over its cached CSR snapshot (concurrency-
// safe, cache-friendly) while one-shot callers pass the graph directly.
type adjacency interface {
	N() int
	Attr(v int) graph.Attrs
	Out(u int) []int32
	In(v int) []int32
}

// colorFunc returns the color of a known edge (u, v), "" for uncolored.
type colorFunc func(u, v int) string

func graphColor(g *graph.Graph) colorFunc {
	return func(u, v int) string {
		c, _ := g.Color(u, v)
		return c
	}
}

// Run computes the maximum plain simulation of p in g. The returned
// relation lists, per pattern node, the sorted data nodes that simulate
// it; ok reports whether every pattern node kept at least one match.
// Patterns must have all edge bounds equal to 1.
func Run(p *pattern.Pattern, g *graph.Graph) (rel [][]int32, ok bool, err error) {
	return RunContext(context.Background(), p, g)
}

// RunContext is Run with cancellation: ctx is polled inside the counter
// and refinement loops, and a cancelled context aborts with ctx.Err().
func RunContext(ctx context.Context, p *pattern.Pattern, g *graph.Graph) (rel [][]int32, ok bool, err error) {
	return runCore(ctx, p, g, graphColor(g), nil)
}

// RunFrozen is RunContext over an immutable CSR snapshot.
func RunFrozen(ctx context.Context, p *pattern.Pattern, f *graph.Frozen) (rel [][]int32, ok bool, err error) {
	return runCore(ctx, p, f, f.Color, nil)
}

// RunFrozenSeeded is RunFrozen with an optional candidate restriction:
// when seed is non-nil it must hold, per pattern node, an ascending
// superset of the true relation (e.g. the relation of a containing
// pattern, see internal/pattern's Containment); candidate initialisation
// then touches only the seeded nodes instead of scanning the graph. The
// greatest fixpoint inside any superset of the maximum simulation is the
// maximum simulation itself, so the result is bit-identical to RunFrozen.
func RunFrozenSeeded(ctx context.Context, p *pattern.Pattern, f *graph.Frozen, seed [][]int32) (rel [][]int32, ok bool, err error) {
	if seed != nil && len(seed) != p.N() {
		return nil, false, fmt.Errorf("simulation: seed has %d rows for a %d-node pattern", len(seed), p.N())
	}
	return runCore(ctx, p, f, f.Color, seed)
}

func runCore(ctx context.Context, p *pattern.Pattern, g adjacency, color colorFunc, seed [][]int32) (rel [][]int32, ok bool, err error) {
	poll := cancel.Every(ctx, 4096)
	if !p.AllBoundsOne() {
		return nil, false, fmt.Errorf("simulation: pattern has a bound != 1; use bounded simulation")
	}
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	np, n := p.N(), g.N()

	// sim[u] as a bitmap plus membership count. A seed replaces the full
	// candidate scan with a probe of its (superset) rows only.
	sim := make([][]bool, np)
	size := make([]int, np)
	for u := 0; u < np; u++ {
		sim[u] = make([]bool, n)
		pred := p.Pred(u)
		if seed != nil {
			for _, x := range seed[u] {
				if x < 0 || int(x) >= n || sim[u][x] {
					continue
				}
				if pred.Match(g.Attr(int(x))) {
					sim[u][x] = true
					size[u]++
				}
			}
			continue
		}
		if f, frozen := g.(*graph.Frozen); frozen {
			cands, err := pattern.Candidates(f, pred, false, &poll)
			if err != nil {
				return nil, false, err
			}
			for _, x := range cands {
				sim[u][x] = true
			}
			size[u] = len(cands)
			continue
		}
		for x := 0; x < n; x++ {
			if pred.Match(g.Attr(x)) {
				sim[u][x] = true
				size[u]++
			}
		}
	}

	// cnt[eid][x] = |{y in out(x) (color-compatible) : sim[to(eid)][y]}|.
	cnt := make([][]int32, p.EdgeCount())
	type removal struct {
		u int
		x int32
	}
	var work []removal
	for eid := 0; eid < p.EdgeCount(); eid++ {
		e := p.EdgeAt(int(eid))
		c := make([]int32, n)
		for x := 0; x < n; x++ {
			if err := poll.Err(); err != nil {
				return nil, false, err
			}
			if !sim[e.From][x] {
				continue
			}
			for _, y := range g.Out(x) {
				if !colorOK(color, x, int(y), e.Color) {
					continue
				}
				if sim[e.To][y] {
					c[x]++
				}
			}
			if c[x] == 0 {
				work = append(work, removal{e.From, int32(x)})
			}
		}
		cnt[eid] = c
	}

	// Worklist refinement: removing x from sim[u] may zero counters of its
	// predecessors for every pattern edge entering u.
	for len(work) > 0 {
		if err := poll.Err(); err != nil {
			return nil, false, err
		}
		rm := work[len(work)-1]
		work = work[:len(work)-1]
		if !sim[rm.u][rm.x] {
			continue
		}
		sim[rm.u][rm.x] = false
		size[rm.u]--
		for _, eid := range p.In(rm.u) {
			e := p.EdgeAt(int(eid))
			c := cnt[eid]
			for _, w := range g.In(int(rm.x)) {
				if !sim[e.From][w] {
					continue
				}
				if !colorOK(color, int(w), int(rm.x), e.Color) {
					continue
				}
				c[w]--
				if c[w] == 0 {
					work = append(work, removal{e.From, w})
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

func colorOK(color colorFunc, u, v int, want string) bool {
	if want == "" {
		return true
	}
	return color(u, v) == want
}

func edgeColorOK(g *graph.Graph, u, v int, want string) bool {
	return colorOK(graphColor(g), u, v, want)
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
					if in[e.To][y] && colorOK(f.Color, int(x), int(y), e.Color) {
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
// which some pattern edge has no witness, until stable. Exponentially
// simpler to audit than Run; tests compare the two.
func RunNaive(p *pattern.Pattern, g *graph.Graph) (rel [][]int32, ok bool, err error) {
	if !p.AllBoundsOne() {
		return nil, false, fmt.Errorf("simulation: pattern has a bound != 1")
	}
	np, n := p.N(), g.N()
	sim := make([][]bool, np)
	for u := 0; u < np; u++ {
		sim[u] = make([]bool, n)
		for x := 0; x < n; x++ {
			sim[u][x] = p.Pred(u).Match(g.Attr(x))
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
					for _, y := range g.Out(x) {
						if sim[e.To][y] && edgeColorOK(g, x, int(y), e.Color) {
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
		sort.Slice(rel[u], func(i, j int) bool { return rel[u][i] < rel[u][j] })
		if len(rel[u]) == 0 {
			ok = false
		}
	}
	return rel, ok, nil
}
