// Drugring reproduces Example 1.1 / Fig. 1 of the paper: detecting a
// drug-trafficking organization in a contact network. The pattern — a
// boss, assistant managers, a secretary, and field workers supervised
// within 3 levels — cannot be found by subgraph isomorphism at all (the
// secretary is also an AM, and supervision spans up to 3 hops), while
// bounded simulation identifies every suspect.
//
// Run with: go run ./examples/drugring
package main

import (
	"context"
	"fmt"
	"log"

	"gpm"
)

func flag(name string) gpm.Predicate {
	return gpm.Predicate{{Attr: name, Op: gpm.OpEQ, Val: gpm.Int(1)}}
}

func main() {
	// Pattern P0 (Fig. 1 left).
	p := gpm.NewPattern()
	b := p.AddNode(flag("isB"))
	am := p.AddNode(flag("isAM"))
	s := p.AddNode(flag("isS"))
	fw := p.AddNode(flag("isFW"))
	p.MustAddEdge(b, am, 1)  // boss -> AMs directly
	p.MustAddEdge(am, b, 1)  // AMs report to the boss
	p.MustAddEdge(am, fw, 3) // AMs supervise field workers within 3 levels
	p.MustAddEdge(fw, am, 3) // workers report back within 3 hops
	p.MustAddEdge(b, s, 1)   // boss -> secretary
	p.MustAddEdge(s, fw, 1)  // secretary -> top-level workers

	// Data graph G0 (Fig. 1 right): boss, three AMs (the last doubling as
	// the secretary), and a 3-deep chain of workers under each AM.
	g := gpm.NewGraph(0)
	boss := g.AddNode(gpm.Attrs{"isB": gpm.Int(1)})
	names := map[int]string{boss: "Boss"}
	var workers []int
	for i := 0; i < 3; i++ {
		attrs := gpm.Attrs{"isAM": gpm.Int(1)}
		if i == 2 {
			attrs["isS"] = gpm.Int(1) // A3 is both AM and secretary
		}
		a := g.AddNode(attrs)
		names[a] = fmt.Sprintf("A%d", i+1)
		g.AddEdge(boss, a)
		g.AddEdge(a, boss)
		prev := a
		for lvl := 1; lvl <= 3; lvl++ {
			w := g.AddNode(gpm.Attrs{"isFW": gpm.Int(1)})
			names[w] = fmt.Sprintf("W%d%d", i+1, lvl)
			g.AddEdge(prev, w)
			g.AddEdge(w, prev)
			workers = append(workers, w)
			prev = w
		}
	}

	eng := gpm.NewEngine(g)
	ctx := context.Background()
	res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drug ring detected: %v\n", res.OK)
	for u, label := range []string{"B", "AM", "S", "FW"} {
		fmt.Printf("  %-3s -> ", label)
		for _, x := range res.Relation[u] {
			fmt.Printf("%s ", names[int(x)])
		}
		fmt.Println()
	}

	// The three observations of Example 1.1:
	sec := res.Relation[s][0]
	fmt.Printf("\n(1) AM and S map to the same node %s (no bijection can do this)\n", names[int(sec)])
	fmt.Printf("(2) AM maps to %d nodes (a relation, not a function)\n", len(res.Relation[am]))
	fmt.Printf("(3) FW captures all %d workers via <=3-hop supervision paths\n", len(res.Relation[fw]))

	if iso, err := eng.Enumerate(ctx, p, gpm.IsoOptions{}); err == nil && len(iso.Embeddings) == 0 {
		fmt.Println("\nsubgraph isomorphism (VF2) finds nothing, as the paper predicts")
	}
	_ = workers
}
