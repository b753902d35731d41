// Package topo implements the topology-preserving matching semantics of
// Ma, Cao, Fan, Huai and Wo, "Capturing Topology in Graph Pattern
// Matching" (PVLDB 5(4), 2012) — the follow-up that closes the gap the
// source paper deliberately opens: bounded simulation trades topology
// preservation for tractability, and this package adds it back while
// staying in cubic time.
//
// Two semantics are provided, both over all-bounds-one patterns:
//
//   - Dual simulation (DualSim): plain graph simulation extended with
//     parent constraints. A pair (u, x) survives only if every pattern
//     edge leaving u has a successor witness (the child constraint of
//     plain simulation) AND every pattern edge entering u has a
//     predecessor witness. Dual simulation preserves parent topology
//     that plain simulation ignores, at the same asymptotic cost. Its
//     fixpoint is internal/core's kernel with the parent constraints on;
//     this package keeps the independent references tests compare it
//     against (IsDualSim, NaiveDualSim).
//
//   - Strong simulation (StrongSim): dual simulation with locality. For
//     every candidate center w, the ball Ĝ[w, dP] of radius dP (the
//     pattern's undirected diameter) is extracted, dual simulation is
//     computed inside the ball, and the maximum perfect subgraph around
//     w — the connected component of the match graph containing w, if it
//     covers every pattern node — contributes its pairs to the result.
//     The ball's dual fixpoint is the same core kernel, seeded with the
//     whole-graph dual relation restricted to the ball; this package
//     adds only the balls, the perfect-subgraph test and the union.
//     Balls are independent, so their evaluation shards across a worker
//     pool; the result is the union over accepted balls, which makes it
//     bit-identical at every worker count.
//
// The semantics form a containment lattice with the package's other
// matchers (the internal/difftest harness pins it on random workloads):
//
//	subiso pairs ⊆ strong ⊆ dual ⊆ plain simulation ⊆ bounded simulation
//
// Both functions traverse an immutable graph.Frozen snapshot; StrongSim
// reuses the pooled graph.Scratch buffers for ball extraction, so it is
// safe to fan out across goroutines and allocation-light on the hot
// path.
package topo

import (
	"fmt"

	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Options tunes one DualSim or StrongSim call.
type Options struct {
	// Workers shards the work — the kernel's initialisation for DualSim,
	// per-center ball evaluation for StrongSim — across this many
	// goroutines. Values <= 1 run fully sequentially. Every worker count
	// produces bit-identical relations: the dual fixpoint is unique, and
	// the strong result is an order-independent union over accepted
	// balls.
	Workers int
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// checkPattern validates p for the bounds-one semantics this package
// implements.
func checkPattern(p *pattern.Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !p.AllBoundsOne() {
		return fmt.Errorf("topo: pattern has a bound != 1; dual/strong simulation are edge-to-edge semantics (use bounded simulation for hop bounds)")
	}
	return nil
}

// colorOK reports whether data edge (u, v) satisfies a pattern edge's
// color demand.
func colorOK(f *graph.Frozen, u, v int, want string) bool {
	if want == "" {
		return true
	}
	return f.Color(u, v) == want
}

// collect turns per-pattern-node membership bitmaps into the sorted
// relation form every matcher in this module returns, reporting whether
// every pattern node kept at least one match. Each row is allocated at
// its exact size: callers keep the rows, some in a result cache.
func collect(sim [][]bool) (rel [][]int32, ok bool) {
	rel = make([][]int32, len(sim))
	ok = true
	for u := range sim {
		n := 0
		for _, in := range sim[u] {
			if in {
				n++
			}
		}
		if n == 0 {
			ok = false
			continue
		}
		rel[u] = make([]int32, 0, n)
		for x, in := range sim[u] {
			if in {
				rel[u] = append(rel[u], int32(x))
			}
		}
	}
	return rel, ok
}
