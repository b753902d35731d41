// Incremental demonstrates §4 of the paper: maintaining a match over a
// stream of edge updates with IncMatch instead of recomputing. It
// streams batches of insertions and deletions over the YouTube stand-in
// and compares the incremental cost against a from-scratch Match (whose
// distance-matrix rebuild is charged to it, as in the paper's Exp-3).
//
// Run with: go run ./examples/incremental [-scale 0.08] [-batches 6] [-delta 40]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"gpm"
)

func main() {
	scale := flag.Float64("scale", 0.08, "dataset scale factor")
	batches := flag.Int("batches", 6, "number of update batches")
	delta := flag.Int("delta", 40, "updates per batch")
	flag.Parse()

	g, err := gpm.Dataset("youtube", 7, *scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.N(), g.M())

	// A DAG pattern (the class with the paper's performance guarantee):
	// well-viewed music videos recommending comedy within 2 hops, which
	// recommend People videos within 3.
	pred := func(s string) gpm.Predicate {
		p, err := gpm.ParsePredicate(s)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	p := gpm.NewPattern()
	music := p.AddNode(pred("category = Music && views >= 1000"))
	comedy := p.AddNode(pred("category = Comedy"))
	people := p.AddNode(pred("category = People"))
	p.MustAddEdge(music, comedy, 2)
	p.MustAddEdge(comedy, people, 3)

	eng := gpm.NewEngine(g)
	start := time.Now()
	w, err := eng.Watch(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial match: ok=%v |S|=%d (matrix+match in %v)\n\n", w.OK(), w.Pairs(), time.Since(start))
	fmt.Printf("%-8s %-12s %-12s %8s %8s %8s\n", "batch", "IncMatch", "recompute", "|AFF1|", "|AFF2|", "|S|")

	for b := 0; b < *batches; b++ {
		ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{
			Insertions: *delta / 2, Deletions: *delta - *delta/2, Seed: int64(100 + b),
		}, eng.Graph())

		t0 := time.Now()
		deltas, err := eng.Update(ups...)
		if err != nil {
			log.Fatal(err)
		}
		incTime := time.Since(t0)
		d := deltas[0].Delta

		// The competitor: recompute from scratch on a copy via a fresh
		// engine (snapshot freeze included, as the paper charges the
		// rebuild of its index).
		scratch := gpm.NewEngine(eng.Graph().Clone())
		t1 := time.Now()
		res, err := scratch.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
		if err != nil {
			log.Fatal(err)
		}
		batchTime := time.Since(t1)
		if res.Pairs() != w.Pairs() {
			log.Fatalf("divergence: incremental |S|=%d, batch |S|=%d", w.Pairs(), res.Pairs())
		}
		fmt.Printf("%-8d %-12v %-12v %8d %8d %8d\n", b, incTime, batchTime, d.Aff1, d.Aff2, w.Pairs())
	}
	fmt.Println("\nincremental wins while the affected area stays small (paper Fig. 6(i)-(k)).")
	_ = music
}
