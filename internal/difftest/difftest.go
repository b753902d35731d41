// Package difftest is the cross-semantics differential test harness: on
// generator-produced random graph/pattern pairs it checks the precise
// containment and equivalence relationships between the five matching
// semantics the engine serves, and uses them as oracles for the parallel
// matching core:
//
//   - plain simulation is bounded simulation with every bound fixed to 1
//     (paper §2.2, remark 2), so Match and Simulate must agree exactly on
//     all-bounds-one patterns;
//
//   - every subgraph-isomorphism embedding is itself a bounded simulation,
//     so each VF2/Ullmann match pair must be contained in the maximum
//     bounded-simulation relation;
//
//   - the matrix, BFS and 2-hop oracles answer the same distance queries,
//     so Match results must be identical across them;
//
//   - the greatest fixpoint is unique (Proposition 2.1), so parallel
//     matching (WithWorkers(N)) must be bit-identical to sequential
//     (WithWorkers(1)) on every seed;
//
//   - the semantics form a containment lattice on all-bounds-one
//     patterns (Ma et al., "Capturing Topology in Graph Pattern
//     Matching", VLDB 2012):
//
//     subiso pairs ⊆ StrongSimulate ⊆ DualSimulate ⊆ Simulate ⊆ Match(k)
//
//     with two collapse points: child-only dual simulation equals plain
//     simulation equals bounded simulation at k=1, and on out-tree
//     patterns strong simulation equals dual simulation (topology
//     preservation is free on trees);
//
//   - dual and strong relations are unions/fixpoints independent of
//     evaluation order, so every worker count must produce bit-identical
//     relations (equal checksums);
//
//   - incremental maintenance computes the same unique fixpoints the
//     batch algorithms do, so after every batch of a random update
//     stream each watcher (bounded, sim, dual, strong) must be
//     bit-identical to a full recompute of its semantics, checksum-
//     pinned across worker counts, with the containment lattice intact
//     (the metamorphic update-stream harness).
//
// The helpers here generate the random workloads and compare relations;
// the assertions live in the package's tests.
package difftest

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"gpm"
	"gpm/internal/generator"
)

// Workload is one generated data graph with a batch of patterns.
type Workload struct {
	Seed     int64
	G        *gpm.Graph
	Patterns []*gpm.Pattern
}

// Config shapes NewWorkload's output.
type Config struct {
	Nodes    int     // data graph nodes (default 80)
	Edges    int     // data graph edges (default 3×Nodes)
	Attrs    int     // attribute alphabet (default Nodes/8)
	Patterns int     // patterns per workload (default 4)
	PNodes   int     // pattern nodes (default 4)
	PEdges   int     // pattern edges (default 5)
	K        int     // hop-bound upper limit; 1 forces all-bounds-one (default 3)
	StarProb float64 // probability of an unbounded edge
	IsoBias  bool    // bias patterns toward isomorphic embeddability
	// Colors, when positive, paints the workload: every data edge takes
	// one of Colors colours or stays plain, and every pattern edge
	// demands one of them with probability 1/2.
	Colors int
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 80
	}
	if c.Edges <= 0 {
		c.Edges = 3 * c.Nodes
	}
	if c.Attrs <= 0 {
		c.Attrs = c.Nodes / 8
		if c.Attrs < 2 {
			c.Attrs = 2
		}
	}
	if c.Patterns <= 0 {
		c.Patterns = 4
	}
	if c.PNodes <= 0 {
		c.PNodes = 4
	}
	if c.PEdges <= 0 {
		c.PEdges = 5
	}
	if c.K <= 0 {
		c.K = 3
	}
	return c
}

// NewWorkload generates a random graph and pattern batch, deterministic
// in seed.
func NewWorkload(seed int64, cfg Config) *Workload {
	cfg = cfg.withDefaults()
	models := []generator.Model{generator.ER, generator.PowerLaw, generator.Communities}
	pick := int(seed % int64(len(models)))
	if pick < 0 {
		pick += len(models)
	}
	g := generator.Graph(generator.GraphConfig{
		Nodes: cfg.Nodes,
		Edges: cfg.Edges,
		Attrs: cfg.Attrs,
		Model: models[pick],
		Seed:  seed,
	})
	w := &Workload{Seed: seed, G: g}
	for i := 0; i < cfg.Patterns; i++ {
		w.Patterns = append(w.Patterns, generator.Pattern(generator.PatternConfig{
			Nodes:     cfg.PNodes,
			Edges:     cfg.PEdges,
			K:         cfg.K,
			C:         cfg.K - 1,
			StarProb:  cfg.StarProb,
			PredAttrs: 1 + int(seed)%2,
			IsoBias:   cfg.IsoBias,
			Seed:      seed*1009 + int64(i)*31,
		}, g))
	}
	if cfg.Colors > 0 {
		paint(w, cfg.Colors)
	}
	return w
}

// paint rebuilds w's graph and patterns with coloured edges, deterministic
// in w.Seed. Patterns are generated before painting, so a coloured
// pattern edge may lose its witnesses; the differential suites want both
// outcomes.
func paint(w *Workload, colors int) {
	r := rand.New(rand.NewSource(w.Seed))
	color := func() string { return fmt.Sprintf("c%d", r.Intn(colors)) }
	g := gpm.NewGraph(w.G.N())
	for v := 0; v < g.N(); v++ {
		g.SetAttr(v, w.G.Attr(v))
	}
	for _, e := range w.G.EdgeList() {
		c := ""
		if r.Intn(colors+1) > 0 {
			c = color()
		}
		g.AddColoredEdge(int(e[0]), int(e[1]), c)
	}
	w.G = g
	for i, p := range w.Patterns {
		q := gpm.NewPattern()
		for u := 0; u < p.N(); u++ {
			q.AddNode(p.Pred(u))
		}
		for _, e := range p.Edges() {
			if r.Intn(2) == 0 {
				e.Color = color()
			}
			if _, err := q.AddColoredEdge(e.From, e.To, e.Bound, e.Color); err != nil {
				panic(err)
			}
		}
		w.Patterns[i] = q
	}
}

// RelationsEqual reports whether two relations are identical: same number
// of pattern nodes and the same sorted data-node list for each.
func RelationsEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				return false
			}
		}
	}
	return true
}

// Contained reports whether sub ⊆ sup as relations: same number of
// pattern nodes, and every data node of each sub row present in the
// corresponding sup row (rows sorted ascending, as every matcher in the
// module returns them).
func Contained(sub, sup [][]int32) bool {
	if len(sub) != len(sup) {
		return false
	}
	for u := range sub {
		j := 0
		for _, x := range sub[u] {
			for j < len(sup[u]) && sup[u][j] < x {
				j++
			}
			if j >= len(sup[u]) || sup[u][j] != x {
				return false
			}
		}
	}
	return true
}

// Checksum folds every (pattern node, data node) pair of a relation into
// one FNV-1a hash, so bit-identity across worker counts can be asserted
// (and reported) as checksum equality.
func Checksum(rel [][]int32) uint64 {
	h := fnv.New64a()
	var buf [6]byte
	for u, l := range rel {
		for _, x := range l {
			buf[0] = byte(u)
			buf[1] = byte(u >> 8)
			buf[2] = byte(x)
			buf[3] = byte(x >> 8)
			buf[4] = byte(x >> 16)
			buf[5] = byte(x >> 24)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// RaiseBounds clones p with every edge bound replaced by k, keeping
// nodes, predicates and colors: the pattern Match(k) runs in the lattice
// tests, where the all-bounds-one relations must be contained in the
// bounded-simulation relation at any k >= 1 (a single-edge witness is a
// path of length 1 <= k).
func RaiseBounds(p *gpm.Pattern, k int) *gpm.Pattern {
	q := gpm.NewPattern()
	for u := 0; u < p.N(); u++ {
		q.AddNode(p.Pred(u))
	}
	for _, e := range p.Edges() {
		if _, err := q.AddColoredEdge(e.From, e.To, k, e.Color); err != nil {
			panic(err) // cannot happen: source pattern was consistent
		}
	}
	return q
}

// TreePattern generates a random out-tree pattern against g: node 0 is
// the root and every other node has exactly one incoming edge, all
// bounds 1. Tree patterns are the lattice's second collapse point —
// strong simulation equals dual simulation on them.
func TreePattern(seed int64, g *gpm.Graph, nodes int) *gpm.Pattern {
	return generator.Pattern(generator.PatternConfig{
		Nodes: nodes,
		Edges: nodes - 1, // skeleton only: an out-tree
		K:     1,
		Seed:  seed,
	}, g)
}

// DiffRelations renders the first few differing entries of two relations,
// for failure messages.
func DiffRelations(a, b [][]int32) string {
	if len(a) != len(b) {
		return fmt.Sprintf("pattern node counts differ: %d vs %d", len(a), len(b))
	}
	for u := range a {
		if !RelationsEqual(a[u:u+1], b[u:u+1]) {
			return fmt.Sprintf("mat(%d): %v vs %v", u, a[u], b[u])
		}
	}
	return "equal"
}
