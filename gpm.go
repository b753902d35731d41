// Package gpm is a Go implementation of graph pattern matching via
// bounded simulation, reproducing "Graph Pattern Matching: From
// Intractable to Polynomial Time" (Fan, Li, Ma, Tang, Wu, Wu — PVLDB
// 3(1), 2010).
//
// Bounded simulation replaces the traditional subgraph-isomorphism
// semantics with (a) node predicates instead of label equality, (b)
// relations instead of bijections, and (c) pattern edges mapped to
// bounded paths instead of single edges — turning an NP-complete problem
// into a cubic-time one.
//
// The package exposes:
//
//   - Graph / Pattern construction ([NewGraph], [NewPattern]) with typed
//     attributes and predicate parsing;
//   - [Engine], the graph-bound, concurrency-safe query API: it caches
//     the distance oracle across queries and serves every matching
//     semantics — bounded simulation ([Engine.Match]), plain simulation
//     ([Engine.Simulate]), topology-preserving dual and strong
//     simulation ([Engine.DualSimulate], [Engine.StrongSimulate]),
//     subgraph-isomorphism enumeration ([Engine.Enumerate]) and
//     incremental matching ([Engine.Watch]);
//   - the flat per-call entry points the Engine supersedes ([Match],
//     [Simulate], [VF2], …), kept as deprecated wrappers;
//   - synthetic generators and dataset stand-ins used by the experiment
//     harness (see cmd/gpmbench and EXPERIMENTS.md).
//
// A minimal session:
//
//	g := gpm.NewGraph(3)
//	g.SetAttr(0, gpm.Attrs{"label": gpm.Str("A")})
//	g.SetAttr(1, gpm.Attrs{"label": gpm.Str("B")})
//	g.SetAttr(2, gpm.Attrs{"label": gpm.Str("C")})
//	g.AddEdge(0, 1)
//	g.AddEdge(1, 2)
//
//	p := gpm.NewPattern()
//	a := p.AddNode(gpm.Label("A"))
//	c := p.AddNode(gpm.Label("C"))
//	p.MustAddEdge(a, c, 2) // "C reachable from A within 2 hops"
//
//	eng := gpm.NewEngine(g)
//	res, err := eng.Match(context.Background(), p)
//	// res.OK() == true; res.Mat(c) == [2]
//
// See README.md for the Engine API and the text formats the command-line
// tools read and write.
package gpm

import (
	"context"

	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/incremental"
	"gpm/internal/pattern"
	"gpm/internal/plan"
	"gpm/internal/simulation"
	"gpm/internal/subiso"
	"gpm/internal/topo"
	"gpm/internal/value"
)

// Re-exported construction types. The aliases expose the full method sets
// of the internal implementations as public API.
type (
	// Graph is a directed data graph with attributed nodes and optional
	// edge colors.
	Graph = graph.Graph
	// Attrs is a node's attribute tuple.
	Attrs = value.Tuple
	// Value is a typed attribute constant (int, float or string).
	Value = value.Value
	// Op is a predicate comparison operator.
	Op = value.Op

	// Pattern is a pattern graph: predicates on nodes, bounds on edges.
	Pattern = pattern.Pattern
	// Predicate is a conjunction of attribute comparisons.
	Predicate = pattern.Predicate
	// Atom is a single comparison "attr op value".
	Atom = pattern.Atom
	// PatternEdge describes one pattern edge (bound, optional color).
	PatternEdge = pattern.Edge

	// Result is a (maximum) bounded-simulation match.
	Result = core.Result
	// ResultGraph is the succinct graph representation of a match.
	ResultGraph = core.ResultGraph
	// ResultEdge is one result-graph edge with its witness length.
	ResultEdge = core.ResultEdge
	// DistOracle answers one question: NonemptyDistWithin(u, v, bound),
	// the colour-blind shortest nonempty path from u to v, or -1 past
	// bound. Coloured and ranged pattern edges are swept, never asked of
	// an oracle.
	DistOracle = core.DistOracle

	// Update is an edge insertion or deletion.
	Update = incremental.Update
	// UpdateDelta reports the effect of an update batch on a match.
	UpdateDelta = incremental.Delta
	// MatchPair is one (pattern node, data node) element of a match delta.
	MatchPair = incremental.MatchPair
	// IncrementalMatcher maintains a match under updates.
	IncrementalMatcher = incremental.Matcher
	// DynamicMatrix maintains a distance matrix under updates.
	DynamicMatrix = incremental.DynMatrix

	// Enumeration is the outcome of a subgraph-isomorphism search.
	Enumeration = subiso.Enumeration
	// IsoOptions bounds subgraph-isomorphism enumeration.
	IsoOptions = subiso.Options
	// EnumAlgo selects the enumeration algorithm in IsoOptions.Algo.
	EnumAlgo = subiso.Algo
	// EnumPlan is the query plan Engine.Enumerate runs under by default:
	// cost-modelled matching order, symmetry-breaking restrictions, and
	// the pattern's automorphism group (see Engine.EnumerationPlan).
	EnumPlan = plan.Plan
)

// Enumeration algorithms for IsoOptions.Algo.
const (
	AlgoVF2     = subiso.AlgoVF2
	AlgoUllmann = subiso.AlgoUllmann
)

// Comparison operators for building predicates programmatically.
const (
	OpLT = value.OpLT
	OpLE = value.OpLE
	OpEQ = value.OpEQ
	OpNE = value.OpNE
	OpGT = value.OpGT
	OpGE = value.OpGE
)

// Unbounded is the pattern edge bound "*": any positive path length.
const Unbounded = pattern.Unbounded

// NewGraph returns a data graph with n attribute-less nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewPattern returns an empty pattern graph.
func NewPattern() *Pattern { return pattern.New() }

// Int, Float and Str build attribute values.
func Int(i int64) Value     { return value.Int(i) }
func Float(f float64) Value { return value.Float(f) }
func Str(s string) Value    { return value.Str(s) }

// Label returns the predicate "label = name", the traditional labeled
// pattern node.
func Label(name string) Predicate { return pattern.Label(name) }

// ParsePredicate parses predicate surface syntax such as
// "category = Music && rate > 3" (see the pattern format in README).
func ParsePredicate(s string) (Predicate, error) { return pattern.ParsePredicate(s) }

// Match computes the unique maximum match of p in g via bounded
// simulation (the paper's cubic-time algorithm Match, Fig. 4). It builds
// a distance matrix of g on every call.
//
// Deprecated: bind the graph once with [NewEngine] and use
// [Engine.Match], which caches the oracle across queries, is safe for
// concurrent use, and supports cancellation.
func Match(p *Pattern, g *Graph) (*Result, error) { return core.Match(p, g) }

// MatchBFS is Match computing distances by (cached) BFS instead of a
// matrix: no preprocessing and O(|V|) memory, slower queries — the "BFS"
// variant of the paper's Exp-2.
//
// Deprecated: use [NewEngine] with WithOracle(OracleBFS) and
// [Engine.Match].
func MatchBFS(p *Pattern, g *Graph) (*Result, error) { return core.MatchBFS(p, g) }

// Match2Hop is Match with a 2-hop reachability labelling filtering BFS
// distance queries — the "2-hop" variant of the paper's Exp-2.
//
// Deprecated: use [NewEngine] with WithOracle(OracleTwoHop) and
// [Engine.Match].
func Match2Hop(p *Pattern, g *Graph) (*Result, error) { return core.Match2Hop(p, g) }

// MatchWithOracle runs the matching fixpoint against a caller-supplied
// distance oracle.
//
// Deprecated: use [NewEngine], which owns oracle construction and
// caching; MatchWithOracle remains for callers plugging in a custom
// [DistOracle] implementation.
func MatchWithOracle(p *Pattern, g *Graph, o DistOracle) (*Result, error) {
	return core.MatchWithOracle(p, g, o)
}

// NewMatrixOracle precomputes the all-pairs distance matrix of g once, so
// many patterns can be matched against the same graph without paying the
// O(|V|(|V|+|E|)) preprocessing per pattern.
//
// Deprecated: [NewEngine] builds and caches this oracle internally.
func NewMatrixOracle(g *Graph) DistOracle { return core.BuildMatrixOracle(g) }

// NewBFSOracle returns the no-preprocessing BFS oracle for g.
//
// Deprecated: use [NewEngine] with WithOracle(OracleBFS).
func NewBFSOracle(g *Graph) DistOracle { return core.NewBFSOracle(g) }

// NewTwoHopOracle builds a 2-hop reachability labelling over g and wraps
// it as a distance oracle.
//
// Deprecated: use [NewEngine] with WithOracle(OracleTwoHop).
func NewTwoHopOracle(g *Graph) DistOracle { return core.BuildTwoHopOracle(g) }

// ResultGraphOf materialises the result graph of a match (§2.2 of the
// paper): nodes are matched data nodes; each edge records which pattern
// edge it realises and the witness path length.
//
// Deprecated: use [Engine.ResultGraph], which reuses the engine's cached
// oracle.
func ResultGraphOf(res *Result, o DistOracle) *ResultGraph {
	return core.BuildResultGraph(res, o)
}

// Simulate computes plain graph simulation (every pattern edge bound must
// be 1): the special case the paper extends. Returns the per-pattern-node
// match lists and whether every pattern node matched.
//
// Deprecated: use [Engine.Simulate].
func Simulate(p *Pattern, g *Graph) ([][]int32, bool, error) {
	return simulation.RunFrozen(context.Background(), p, g.Freeze())
}

// DualSimulate computes the maximum dual simulation of p in g (every
// pattern edge bound must be 1): plain simulation extended with parent
// constraints, preserving both child and parent topology (Ma et al.,
// "Capturing Topology in Graph Pattern Matching", VLDB 2012). The
// returned relation lists, per pattern node, the sorted data nodes that
// dual-simulate it; ok reports whether every pattern node matched. It
// freezes g on every call; bind the graph once with [NewEngine] and use
// [Engine.DualSimulate] for repeated queries.
func DualSimulate(p *Pattern, g *Graph) (rel [][]int32, ok bool, err error) {
	return topo.DualSim(context.Background(), p, g.Freeze(), topo.Options{})
}

// StrongSimulate computes strong simulation of p in g (every pattern
// edge bound must be 1): dual simulation inside diameter-bounded balls
// with maximum-perfect-subgraph filtering — the strictest cubic-time
// semantics the package serves (Ma et al., VLDB 2012). It freezes g on
// every call; bind the graph once with [NewEngine] and use
// [Engine.StrongSimulate] for repeated (and parallel) queries.
func StrongSimulate(p *Pattern, g *Graph) (rel [][]int32, ok bool, err error) {
	return topo.StrongSim(context.Background(), p, g.Freeze(), topo.Options{})
}

// VF2 enumerates subgraph-isomorphism embeddings of p in g (edge-to-edge
// semantics) — the baseline the paper compares against in Exp-1.
//
// Deprecated: use [Engine.Enumerate] (AlgoVF2 is the default).
func VF2(p *Pattern, g *Graph, opts IsoOptions) *Enumeration { return subiso.VF2(p, g, opts) }

// Ullmann is the Ullmann-style enumeration (the paper's "SubIso").
//
// Deprecated: use [Engine.Enumerate] with IsoOptions.Algo = AlgoUllmann.
func Ullmann(p *Pattern, g *Graph, opts IsoOptions) *Enumeration { return subiso.Ullmann(p, g, opts) }

// NewDynamicMatrix wraps g with an incrementally maintained distance
// matrix (the paper's UpdateM / UpdateBM procedures). The graph must be
// mutated only through the returned matrix.
//
// Deprecated: [Engine.Watch] and [Engine.Update] maintain a shared
// DynamicMatrix internally.
func NewDynamicMatrix(g *Graph) *DynamicMatrix { return incremental.NewDynMatrix(g) }

// NewIncrementalMatcher computes the initial maximum match of p over dm's
// graph and maintains it under dm.Apply-style updates (the paper's
// IncMatch with the Match⁻/Match⁺ cascades). Multiple matchers may share
// one DynamicMatrix only if their updates are applied through exactly one
// of them; otherwise give each its own.
//
// Deprecated: use [Engine.Watch], which lets many watchers share one
// maintained matrix safely.
func NewIncrementalMatcher(p *Pattern, dm *DynamicMatrix) (*IncrementalMatcher, error) {
	return incremental.NewMatcher(p, dm)
}

// InsertEdge and DeleteEdge build updates for IncrementalMatcher.Apply.
func InsertEdge(u, v int) Update { return incremental.Ins(u, v) }
func DeleteEdge(u, v int) Update { return incremental.Del(u, v) }
