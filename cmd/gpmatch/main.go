// Command gpmatch matches a pattern file against a data graph file, or
// maintains the match through an update stream.
//
// Usage:
//
//	gpmatch -graph g.graph -pattern p.pattern
//	        [-semantics match|sim|dual|strong|iso|vf2|ullmann]
//	        [-workers N] [-result] [-limit 100] [-time] [-plan] [-count] [-noplan]
//	gpmatch -graph g.graph -pattern p.pattern -updates u.updates
//	        [-semantics match|sim|dual|strong] [-workers N] [-chunk 100] [-verify]
//
// The default semantics is the paper's cubic-time Match (bounded
// simulation, its witnesses found by sweeps over the graph's adjacency:
// no distance oracle is built). sim is
// plain graph simulation; dual and strong are the topology-preserving
// semantics of Ma et al. (VLDB 2012), requiring all edge bounds to be 1;
// iso/vf2/ullmann print embeddings under the traditional subgraph-
// isomorphism semantics (-limit caps them; iso is VF2 under the query
// planner's matching order and symmetry breaking, the engine default).
// For those semantics -plan prints the chosen plan, -count prints the
// embedding count (computed without materialising embeddings) instead of
// listing them, and -noplan opts out of the planner. -result additionally
// prints the result graph (match, dual and strong only). -time reports
// the matching time. -workers sets the matching parallelism
// (0 = GOMAXPROCS); every worker count returns identical output.
//
// -updates watches the relation instead (the paper's IncMatch for match,
// the incremental sim/dual/strong maintainers for the others): updates are
// applied in chunks of -chunk, each chunk's line reports the incremental
// time and the relation delta, and -verify cross-checks the maintained
// relation against a from-scratch recompute of the same semantics after
// every chunk. -result and -time do not apply to a watch; like every
// flag outside its semantics, they are rejected rather than ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gpm"
	"gpm/internal/difftest"
)

// options carries the parsed command line.
type options struct {
	graphPath, patternPath, updatesPath string
	semantics                           string
	showResult, showTime                bool
	limit, workers, chunk               int
	showPlan, count, noPlan, verify     bool
}

func main() {
	var o options
	flag.StringVar(&o.graphPath, "graph", "", "data graph file (required)")
	flag.StringVar(&o.patternPath, "pattern", "", "pattern file (required)")
	flag.StringVar(&o.semantics, "semantics", "match", "match | sim | dual | strong | iso | vf2 | ullmann")
	flag.BoolVar(&o.showResult, "result", false, "print the result graph (match/dual/strong)")
	flag.IntVar(&o.limit, "limit", 100, "embedding cap for iso/vf2/ullmann")
	flag.BoolVar(&o.showTime, "time", false, "print the match time")
	flag.IntVar(&o.workers, "workers", 0, "matching parallelism (0 = GOMAXPROCS)")
	flag.BoolVar(&o.showPlan, "plan", false, "print the enumeration plan (iso/vf2/ullmann)")
	flag.BoolVar(&o.count, "count", false, "print the embedding count instead of embeddings (iso/vf2/ullmann)")
	flag.BoolVar(&o.noPlan, "noplan", false, "skip the query planner (iso/vf2/ullmann)")
	flag.StringVar(&o.updatesPath, "updates", "", "update stream file: watch the relation through it (match/sim/dual/strong)")
	flag.IntVar(&o.chunk, "chunk", 100, "updates per batch (-updates)")
	flag.BoolVar(&o.verify, "verify", false, "cross-check each chunk against a from-scratch recompute (-updates)")
	flag.Parse()
	if o.graphPath == "" || o.patternPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "gpmatch:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	isEnum := o.semantics == "iso" || o.semantics == "vf2" || o.semantics == "ullmann"
	if (o.showPlan || o.count || o.noPlan) && !isEnum {
		return fmt.Errorf("-plan/-count/-noplan apply to -semantics iso|vf2|ullmann, not %q", o.semantics)
	}
	if o.updatesPath != "" && isEnum {
		return fmt.Errorf("-updates applies to -semantics match|sim|dual|strong, not %q", o.semantics)
	}
	if o.verify && o.updatesPath == "" {
		return fmt.Errorf("-verify applies to -updates")
	}
	if o.updatesPath != "" && (o.showResult || o.showTime) {
		return fmt.Errorf("-result and -time do not apply to -updates")
	}
	if o.showResult && (isEnum || o.semantics == "sim") {
		return fmt.Errorf("-result applies to -semantics match|dual|strong, not %q", o.semantics)
	}
	g, err := gpm.LoadGraphFile(o.graphPath)
	if err != nil {
		return err
	}
	p, err := gpm.LoadPatternFile(o.patternPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph: %d nodes, %d edges; pattern: %d nodes, %d edges\n",
		g.N(), g.M(), p.N(), p.EdgeCount())
	ctx := context.Background()
	var engOpts []gpm.EngineOption
	if o.workers > 0 {
		engOpts = append(engOpts, gpm.WithWorkers(o.workers))
	}
	eng := gpm.NewEngine(g, engOpts...)

	if isEnum {
		return enumerate(w, eng, p, o)
	}
	sem, err := gpm.ParseRelSemantics(o.semantics)
	if err != nil {
		return fmt.Errorf("unknown semantics %q", o.semantics)
	}
	if o.updatesPath != "" {
		return watch(w, eng, p, sem, o)
	}
	res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: sem, Pattern: p})
	if err != nil {
		return err
	}
	if sem == gpm.RelSim {
		fmt.Fprintf(w, "plain simulation: ok=%v\n", res.OK)
		for u, l := range res.Relation {
			fmt.Fprintf(w, "  sim(%d): %d nodes\n", u, len(l))
		}
	} else {
		name := o.semantics + " simulation"
		if sem == gpm.RelMatch {
			name = "bounded simulation"
		}
		printRelation(w, name, res, p)
	}
	if o.showTime {
		printTime(w, res.Stats)
	}
	if o.showResult {
		fmt.Fprint(w, eng.ResultGraph(p, res).String())
	}
	return nil
}

// enumerate runs the subgraph-isomorphism semantics iso, vf2 and ullmann.
func enumerate(w io.Writer, eng *gpm.Engine, p *gpm.Pattern, o options) error {
	ctx := context.Background()
	opts := gpm.IsoOptions{MaxEmbeddings: o.limit, NoPlan: o.noPlan}
	if o.semantics == "ullmann" {
		opts.Algo = gpm.AlgoUllmann
	}
	if o.showPlan {
		pl, err := eng.EnumerationPlan(p)
		if err != nil {
			return err
		}
		fmt.Fprint(w, pl.String())
	}
	if o.count {
		cnt, err := eng.CountEmbeddings(ctx, p, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: count=%d (complete=%v, steps=%d, |Aut|=%d)\n",
			o.semantics, cnt.Count, cnt.Complete, cnt.Steps, cnt.Automorphisms)
		if o.showTime {
			printTime(w, cnt.Stats)
		}
		return nil
	}
	enum, err := eng.Enumerate(ctx, p, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d embeddings (complete=%v, steps=%d)\n",
		o.semantics, len(enum.Embeddings), enum.Complete, enum.Steps)
	for i, emb := range enum.Embeddings {
		if i >= 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(enum.Embeddings)-10)
			break
		}
		fmt.Fprintf(w, "  %v\n", emb)
	}
	if o.showTime {
		printTime(w, enum.Stats)
	}
	return nil
}

// watch maintains the relation of p through the -updates stream with an
// engine watcher, one Update batch per chunk.
func watch(out io.Writer, eng *gpm.Engine, p *gpm.Pattern, sem gpm.RelSemantics, o options) error {
	f, err := os.Open(o.updatesPath)
	if err != nil {
		return err
	}
	ups, err := gpm.ReadUpdates(f)
	f.Close()
	if err != nil {
		return err
	}
	start := time.Now()
	var w *gpm.Watcher
	switch sem {
	case gpm.RelMatch:
		w, err = eng.Watch(p)
	case gpm.RelSim:
		w, err = eng.WatchSim(p)
	case gpm.RelDual:
		w, err = eng.WatchDual(p)
	case gpm.RelStrong:
		w, err = eng.WatchStrong(p)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "initial %v watch: ok=%v |S|=%d (built in %v)\n", sem, w.OK(), w.Pairs(), time.Since(start))

	chunk := o.chunk
	if chunk <= 0 {
		chunk = len(ups)
	}
	for off := 0; off < len(ups); off += chunk {
		end := min(off+chunk, len(ups))
		t0 := time.Now()
		deltas, err := eng.Update(ups[off:end]...)
		if err != nil {
			return fmt.Errorf("chunk at %d: %w", off, err)
		}
		incTime := time.Since(t0)
		delta := deltas[0].Delta
		fmt.Fprintf(out, "chunk %4d..%-4d  inc: %-12v +%d -%d pairs  |AFF1|=%d |AFF2|=%d recomputed=%v\n",
			off, end-1, incTime, len(delta.Added), len(delta.Removed), delta.Aff1, delta.Aff2, delta.Recomputed)
		if !o.verify {
			continue
		}
		// A throwaway engine over the live graph: the scratch query is
		// read-only, and its snapshot freeze is charged to the scratch
		// time the way the paper charges recomputation.
		t1 := time.Now()
		res, err := gpm.NewEngine(eng.Graph()).RelationQuery(context.Background(), gpm.RelationQuery{Semantics: sem, Pattern: p})
		if err != nil {
			return err
		}
		scratchTime := time.Since(t1)
		wantSum, gotSum := difftest.Checksum(res.Relation), difftest.Checksum(w.Relation())
		fmt.Fprintf(out, "    scratch: %-12v ok=%v |S|=%d checksum=%016x\n", scratchTime, res.OK, res.Pairs(), wantSum)
		if res.OK != w.OK() || gotSum != wantSum {
			return fmt.Errorf("divergence after chunk at %d: inc checksum %016x, scratch %016x", off, gotSum, wantSum)
		}
	}
	fmt.Fprintf(out, "final: ok=%v |S|=%d checksum=%016x\n", w.OK(), w.Pairs(), difftest.Checksum(w.Relation()))
	return nil
}

func printTime(w io.Writer, s gpm.MatchStats) {
	fmt.Fprintf(w, "match: %v\n", s.MatchTime)
}

func printRelation(w io.Writer, name string, res *gpm.RelationResult, p *gpm.Pattern) {
	fmt.Fprintf(w, "%s: ok=%v, |S|=%d pairs\n", name, res.OK, res.Pairs())
	for u := 0; u < p.N(); u++ {
		mat := res.Relation[u]
		fmt.Fprintf(w, "  mat(%d) [%s]: %d nodes", u, p.Pred(u), len(mat))
		if len(mat) <= 12 {
			fmt.Fprintf(w, " %v", mat)
		}
		fmt.Fprintln(w)
	}
}
