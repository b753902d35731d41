// Hopranges demonstrates the §6 "ranges on hops" extension: pattern
// edges with a lower and an upper walk-length bound. The scenario is
// fraud screening: flag accounts that send money to a mule account
// *indirectly* — through 2 to 4 intermediaries — while accounts paying
// the same destination directly are fine.
//
// Run with: go run ./examples/hopranges
package main

import (
	"context"
	"fmt"
	"log"

	"gpm"
)

func main() {
	role := func(r string) gpm.Attrs { return gpm.Attrs{"role": gpm.Str(r)} }
	g := gpm.NewGraph(0)
	direct := g.AddNode(role("account")) // pays the mule directly
	layered := g.AddNode(role("account"))
	shell1 := g.AddNode(role("shell"))
	shell2 := g.AddNode(role("shell"))
	mule := g.AddNode(role("mule"))
	names := []string{"direct-payer", "layered-payer", "shell-1", "shell-2", "mule"}

	g.AddEdge(direct, mule)    // a single transfer: ordinary behaviour
	g.AddEdge(layered, shell1) // layering chain of length 3
	g.AddEdge(shell1, shell2)
	g.AddEdge(shell2, mule)

	// Pattern: an account connected to a mule by a walk of length 2..4 —
	// "indirectly, but not too far to be coincidence".
	p := gpm.NewPattern()
	acct := p.AddNode(gpm.Predicate{{Attr: "role", Op: gpm.OpEQ, Val: gpm.Str("account")}})
	ml := p.AddNode(gpm.Predicate{{Attr: "role", Op: gpm.OpEQ, Val: gpm.Str("mule")}})
	if _, err := p.AddRangeEdge(acct, ml, 2, 4, ""); err != nil {
		log.Fatal(err)
	}

	eng := gpm.NewEngine(g)
	ctx := context.Background()
	res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suspicious accounts (mule reachable in 2..4 hops):\n")
	for _, x := range res.Relation[acct] {
		fmt.Printf("  %s\n", names[x])
	}
	fmt.Println("the direct payer is NOT flagged: its only walk to the mule has length 1")

	rg := eng.ResultGraph(p, res)
	for _, e := range rg.Edges {
		fmt.Printf("evidence: %s -> %s via a %d-hop layering chain\n", names[e.From], names[e.To], e.Dist)
	}

	// Contrast: a plain <=4 bound flags both payers.
	q := gpm.NewPattern()
	qa := q.AddNode(gpm.Predicate{{Attr: "role", Op: gpm.OpEQ, Val: gpm.Str("account")}})
	qm := q.AddNode(gpm.Predicate{{Attr: "role", Op: gpm.OpEQ, Val: gpm.Str("mule")}})
	q.MustAddEdge(qa, qm, 4)
	res2, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: q})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith a plain <=4 bound (no lower bound), %d accounts are flagged — the range is what isolates layering\n",
		len(res2.Relation[qa]))
}
