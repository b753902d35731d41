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
//     a frozen snapshot of the graph across queries and serves every
//     matching semantics — bounded simulation, plain simulation and the
//     topology-preserving dual and strong simulation through one
//     [Engine.RelationQuery] (the [RelSemantics] picks which),
//     subgraph-isomorphism enumeration ([Engine.Enumerate]) and
//     incremental matching ([Engine.Watch]);
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
//	res, err := eng.RelationQuery(context.Background(),
//		gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
//	// res.OK == true; res.Relation[c] == [2]
//
// See README.md for the Engine API and the text formats the command-line
// tools read and write.
package gpm

import (
	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/incremental"
	"gpm/internal/pattern"
	"gpm/internal/plan"
	"gpm/internal/subiso"
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

	// ResultGraph is the succinct graph representation of a match.
	ResultGraph = core.ResultGraph
	// ResultEdge is one result-graph edge with its witness length.
	ResultEdge = core.ResultEdge

	// Update is an edge insertion or deletion.
	Update = incremental.Update
	// UpdateDelta reports the effect of an update batch on a match.
	UpdateDelta = incremental.Delta
	// MatchPair is one (pattern node, data node) element of a match delta.
	MatchPair = incremental.MatchPair

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

// InsertEdge and DeleteEdge build updates for [Engine.Update].
func InsertEdge(u, v int) Update { return incremental.Ins(u, v) }
func DeleteEdge(u, v int) Update { return incremental.Del(u, v) }
