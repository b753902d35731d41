// Quickstart: build a small attributed graph, write a pattern with
// predicates and hop bounds, bind the graph to an engine, compute the
// maximum bounded-simulation match, and print the result graph.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"gpm"
)

func main() {
	// A tiny org chart: a director, two managers, three engineers.
	g := gpm.NewGraph(0)
	director := g.AddNode(gpm.Attrs{"role": gpm.Str("director"), "years": gpm.Int(12)})
	mgrA := g.AddNode(gpm.Attrs{"role": gpm.Str("manager"), "years": gpm.Int(7)})
	mgrB := g.AddNode(gpm.Attrs{"role": gpm.Str("manager"), "years": gpm.Int(2)})
	eng1 := g.AddNode(gpm.Attrs{"role": gpm.Str("engineer"), "years": gpm.Int(3)})
	eng2 := g.AddNode(gpm.Attrs{"role": gpm.Str("engineer"), "years": gpm.Int(1)})
	eng3 := g.AddNode(gpm.Attrs{"role": gpm.Str("engineer"), "years": gpm.Int(5)})
	g.AddEdge(director, mgrA)
	g.AddEdge(director, mgrB)
	g.AddEdge(mgrA, eng1)
	g.AddEdge(eng1, eng2) // eng1 mentors eng2: two hops from the manager
	g.AddEdge(mgrB, eng3)
	g.AddEdge(eng3, mgrB) // engineers report back

	// Pattern: an experienced director overseeing, within 2 hops, an
	// engineer — where the parse-based predicate syntax keeps patterns
	// readable.
	pred := func(s string) gpm.Predicate {
		p, err := gpm.ParsePredicate(s)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	p := gpm.NewPattern()
	boss := p.AddNode(pred("role = director && years >= 10"))
	eng := p.AddNode(pred("role = engineer"))
	p.MustAddEdge(boss, eng, 3)

	// The engine binds the graph once: it freezes a snapshot of it on
	// the first query, and later queries (and goroutines) share it.
	engine := gpm.NewEngine(g)
	ctx := context.Background()
	res, err := engine.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("match found: %v, %d pairs\n", res.OK, res.Pairs())
	fmt.Printf("  boss candidates:     %v\n", res.Relation[boss])
	fmt.Printf("  engineer candidates: %v\n", res.Relation[eng])

	// The result graph records which pattern edge each connection
	// realises and the witness path length.
	fmt.Println(engine.ResultGraph(p, res))

	// Contrast with subgraph isomorphism: edge-to-edge semantics only
	// reaches eng1, never the mentee two hops away.
	iso, err := engine.Enumerate(ctx, p, gpm.IsoOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VF2 (edge-to-edge) embeddings: %d\n", len(iso.Embeddings))
}
