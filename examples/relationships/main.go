// Relationships demonstrates the paper's §6 extension, implemented here:
// edge colors. Data edges carry a relationship type, pattern edges may
// demand one, and bounded simulation then requires a monochromatic
// witness path — "friend-of-friend within 3 hops" stops being satisfied
// by a path that detours over a work relationship.
//
// Run with: go run ./examples/relationships
package main

import (
	"context"
	"fmt"
	"log"

	"gpm"
)

func main() {
	g := gpm.NewGraph(0)
	role := func(r string) gpm.Attrs { return gpm.Attrs{"role": gpm.Str(r)} }
	alice := g.AddNode(role("founder"))
	bob := g.AddNode(role("friend"))
	carol := g.AddNode(role("investor"))
	dave := g.AddNode(role("colleague"))
	erin := g.AddNode(role("investor"))
	names := []string{"alice", "bob", "carol", "dave", "erin"}

	// Two routes from alice to an investor: a pure friend chain
	// alice -> bob -> carol, and a mixed chain alice -> dave (work) ->
	// erin (friend).
	g.AddColoredEdge(alice, bob, "friend")
	g.AddColoredEdge(bob, carol, "friend")
	g.AddColoredEdge(alice, dave, "work")
	g.AddColoredEdge(dave, erin, "friend")

	// Pattern: a founder connected to an investor by friends only, within
	// 3 hops.
	p := gpm.NewPattern()
	founder := p.AddNode(gpm.Predicate{{Attr: "role", Op: gpm.OpEQ, Val: gpm.Str("founder")}})
	investor := p.AddNode(gpm.Predicate{{Attr: "role", Op: gpm.OpEQ, Val: gpm.Str("investor")}})
	if _, err := p.AddColoredEdge(founder, investor, 3, "friend"); err != nil {
		log.Fatal(err)
	}

	eng := gpm.NewEngine(g)
	ctx := context.Background()
	res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("friend-only pattern matches: %v\n", res.OK)

	// mat(investor) lists every investor (the node has no outgoing
	// constraints); the color constraint shows in the result graph, whose
	// founder -> investor edges exist only where a monochromatic friend
	// path witnesses them.
	fmt.Println("result graph under the friend-only edge:")
	rg := eng.ResultGraph(p, res)
	for _, e := range rg.Edges {
		fmt.Printf("  %s -> %s (friend path of length %d)\n", names[e.From], names[e.To], e.Dist)
	}
	fmt.Println("  (no edge to erin: her chain passes through a work edge)")

	// The same pattern without a color constraint connects both.
	q := gpm.NewPattern()
	qf := q.AddNode(gpm.Predicate{{Attr: "role", Op: gpm.OpEQ, Val: gpm.Str("founder")}})
	qi := q.AddNode(gpm.Predicate{{Attr: "role", Op: gpm.OpEQ, Val: gpm.Str("investor")}})
	q.MustAddEdge(qf, qi, 3)
	res2, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: q})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nresult graph without the color constraint:")
	rg2 := eng.ResultGraph(q, res2)
	for _, e := range rg2.Edges {
		fmt.Printf("  %s -> %s (any-color path of length %d)\n", names[e.From], names[e.To], e.Dist)
	}
	_ = carol
	_ = investor
	_ = qf
}
