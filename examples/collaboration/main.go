// Collaboration reproduces Fig. 2's P2/G2 and Fig. 3(a): a CS researcher
// looking for collaborators in biology, sociology and medicine under hop
// bounds, where subgraph isomorphism finds nothing but bounded simulation
// returns an informative result graph. It also shows the negative case
// G3 (Example 2.2(3)): dropping one edge destroys the whole match.
//
// Run with: go run ./examples/collaboration
package main

import (
	"context"
	"fmt"
	"log"

	"gpm"
)

func dept(d string) gpm.Predicate {
	return gpm.Predicate{{Attr: "dept", Op: gpm.OpEQ, Val: gpm.Str(d)}}
}

func main() {
	// Pattern P2: collaborators in Bio (<=2 hops), Soc (<=3), Med
	// (mutually connected by unbounded chains); Bio must reach Soc (<=2)
	// and Med (<=3).
	p := gpm.NewPattern()
	cs := p.AddNode(dept("CS"))
	bio := p.AddNode(dept("Bio"))
	soc := p.AddNode(dept("Soc"))
	med := p.AddNode(dept("Med"))
	p.MustAddEdge(cs, bio, 2)
	p.MustAddEdge(cs, soc, 3)
	p.MustAddEdge(cs, med, gpm.Unbounded)
	p.MustAddEdge(med, cs, gpm.Unbounded)
	p.MustAddEdge(bio, soc, 2)
	p.MustAddEdge(bio, med, 3)

	// Data graph G2.
	g := gpm.NewGraph(0)
	names := []string{"DB", "AI", "Gen", "Eco", "Chem", "Soc", "Med"}
	depts := []string{"CS", "CS", "Bio", "Bio", "Chem", "Soc", "Med"}
	for i, n := range names {
		g.AddNode(gpm.Attrs{"dept": gpm.Str(depts[i]), "name": gpm.Str(n)})
	}
	name2id := map[string]int{}
	for i, n := range names {
		name2id[n] = i
	}
	edges := [][2]string{
		{"DB", "Gen"}, {"Gen", "Chem"}, {"Chem", "Soc"},
		{"Eco", "Soc"}, {"Soc", "Med"}, {"Med", "DB"}, {"AI", "Med"},
	}
	for _, e := range edges {
		g.AddEdge(name2id[e[0]], name2id[e[1]])
	}

	eng := gpm.NewEngine(g)
	ctx := context.Background()
	res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P2 matches G2: %v\n", res.OK)
	for u, label := range []string{"CS ", "Bio", "Soc", "Med"} {
		fmt.Printf("  %s -> ", label)
		for _, x := range res.Relation[u] {
			fmt.Printf("%s ", names[x])
		}
		fmt.Println()
	}
	fmt.Println("\nnote: AI is excluded — it cannot reach Soc within 3 hops (Example 2.2).")

	// Fig. 3(a): the result graph, with witness path lengths.
	fmt.Println("\nresult graph (Fig. 3(a)); DB -> Soc denotes a path of length 3:")
	rg := eng.ResultGraph(p, res)
	fmt.Print(rg.Render(func(x int32) string { return names[x] }))

	// Subgraph isomorphism finds no embedding at all.
	if iso, err := eng.Enumerate(ctx, p, gpm.IsoOptions{}); err == nil && len(iso.Embeddings) == 0 {
		fmt.Println("\nVF2 finds no isomorphic subgraph (P2 is not isomorphic to any subgraph of G2)")
	}

	// G3 = G2 without (DB, Gen): the match collapses entirely. Updates go
	// through the engine, which keeps its cached snapshot consistent.
	if _, err := eng.Update(gpm.DeleteEdge(name2id["DB"], name2id["Gen"])); err != nil {
		log.Fatal(err)
	}
	res3, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter dropping DB -> Gen (G3): match = %v — one edge was load-bearing\n", res3.OK)
}
