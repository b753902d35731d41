// Command gpmatch matches a pattern file against a data graph file.
//
// Usage:
//
//	gpmatch -graph g.graph -pattern p.pattern
//	        [-semantics match|bfs|2hop|pll|auto|sim|dual|strong|iso|vf2|ullmann]
//	        [-workers N] [-result] [-limit 100] [-time] [-plan] [-count] [-noplan]
//
// The default semantics is the paper's cubic-time Match (bounded
// simulation over a distance matrix); bfs/2hop/pll/auto select the oracle
// (auto is the matrix up to 4096 nodes, else BFS). sim is
// plain graph simulation; dual and strong are the topology-preserving
// semantics of Ma et al. (VLDB 2012), requiring all edge bounds to be 1;
// iso/vf2/ullmann print embeddings under the traditional subgraph-
// isomorphism semantics (-limit caps them; iso is VF2 under the query
// planner's matching order and symmetry breaking, the engine default).
// For those semantics -plan prints the chosen plan, -count prints the
// embedding count (computed without materialising embeddings) instead of
// listing them, and -noplan opts out of the planner. -result additionally
// prints the result graph (bounded, dual and strong simulation). -time
// reports the oracle preprocessing and the matching time separately.
// -workers sets the matching parallelism and the PLL oracle's
// batched-parallel build width (0 = GOMAXPROCS); every worker count
// returns identical output. -algo is the deprecated spelling of
// -semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"gpm"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "data graph file (required)")
		patternPath = flag.String("pattern", "", "pattern file (required)")
		algo        = flag.String("algo", "", "deprecated alias for -semantics")
		semantics   = flag.String("semantics", "", "match | bfs | 2hop | pll | auto | sim | dual | strong | iso | vf2 | ullmann")
		showResult  = flag.Bool("result", false, "print the result graph (bounded/dual/strong simulation)")
		limit       = flag.Int("limit", 100, "embedding cap for iso/vf2/ullmann")
		showTime    = flag.Bool("time", false, "print oracle-build and match time separately")
		workers     = flag.Int("workers", 0, "matching and oracle-build parallelism (0 = GOMAXPROCS)")
		showPlan    = flag.Bool("plan", false, "print the enumeration plan (iso/vf2/ullmann)")
		count       = flag.Bool("count", false, "print the embedding count instead of embeddings (iso/vf2/ullmann)")
		noPlan      = flag.Bool("noplan", false, "skip the query planner (iso/vf2/ullmann)")
	)
	flag.Parse()
	if *graphPath == "" || *patternPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	sem := *semantics
	if sem == "" {
		sem = *algo
	}
	if sem == "" {
		sem = "match"
	}
	if err := run(os.Stdout, *graphPath, *patternPath, sem, *showResult, *limit, *showTime, *workers, *showPlan, *count, *noPlan); err != nil {
		fmt.Fprintln(os.Stderr, "gpmatch:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, graphPath, patternPath, semantics string, showResult bool, limit int, showTime bool, workers int, showPlan, count, noPlan bool) error {
	isEnum := semantics == "iso" || semantics == "vf2" || semantics == "ullmann"
	if (showPlan || count || noPlan) && !isEnum {
		return fmt.Errorf("-plan/-count/-noplan apply to -semantics iso|vf2|ullmann, not %q", semantics)
	}
	g, err := gpm.LoadGraphFile(graphPath)
	if err != nil {
		return err
	}
	p, err := gpm.LoadPatternFile(patternPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graph: %d nodes, %d edges; pattern: %d nodes, %d edges\n",
		g.N(), g.M(), p.N(), p.EdgeCount())
	ctx := context.Background()
	var engOpts []gpm.EngineOption
	if workers > 0 {
		engOpts = append(engOpts, gpm.WithWorkers(workers))
	}

	switch semantics {
	case "match", "bfs", "2hop", "pll", "auto":
		kind := map[string]gpm.OracleKind{
			"match": gpm.OracleMatrix,
			"bfs":   gpm.OracleBFS,
			"2hop":  gpm.OracleTwoHop,
			"pll":   gpm.OraclePLL,
			"auto":  gpm.OracleAuto,
		}[semantics]
		eng := gpm.NewEngine(g, append(engOpts, gpm.WithOracle(kind))...)
		res, err := eng.Match(ctx, p)
		if err != nil {
			return err
		}
		printRelation(w, "bounded simulation", res.Result, p)
		if showTime {
			printTime(w, res.Stats)
		}
		if showResult {
			fmt.Fprint(w, eng.ResultGraph(res).String())
		}
	case "sim":
		eng := gpm.NewEngine(g, engOpts...)
		sim, err := eng.Simulate(ctx, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "plain simulation: ok=%v\n", sim.OK)
		for u, l := range sim.Relation {
			fmt.Fprintf(w, "  sim(%d): %d nodes\n", u, len(l))
		}
		if showTime {
			printTime(w, sim.Stats)
		}
	case "dual", "strong":
		eng := gpm.NewEngine(g, engOpts...)
		var res *gpm.TopoResult
		var err error
		if semantics == "dual" {
			res, err = eng.DualSimulate(ctx, p)
		} else {
			res, err = eng.StrongSimulate(ctx, p)
		}
		if err != nil {
			return err
		}
		printRelation(w, semantics+" simulation", res.Result, p)
		if showTime {
			printTime(w, res.Stats)
		}
		if showResult {
			fmt.Fprint(w, eng.ResultGraphOf(res.Result).String())
		}
	case "iso", "vf2", "ullmann":
		opts := gpm.IsoOptions{MaxEmbeddings: limit, NoPlan: noPlan}
		if semantics == "ullmann" {
			opts.Algo = gpm.AlgoUllmann
		}
		eng := gpm.NewEngine(g, engOpts...)
		if showPlan {
			pl, err := eng.EnumerationPlan(p)
			if err != nil {
				return err
			}
			fmt.Fprint(w, pl.String())
		}
		if count {
			cnt, err := eng.CountEmbeddings(ctx, p, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s: count=%d (complete=%v, steps=%d, |Aut|=%d)\n",
				semantics, cnt.Count, cnt.Complete, cnt.Steps, cnt.Automorphisms)
			if showTime {
				printTime(w, cnt.Stats)
			}
			return nil
		}
		enum, err := eng.Enumerate(ctx, p, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %d embeddings (complete=%v, steps=%d)\n",
			semantics, len(enum.Embeddings), enum.Complete, enum.Steps)
		for i, emb := range enum.Embeddings {
			if i >= 10 {
				fmt.Fprintf(w, "  ... %d more\n", len(enum.Embeddings)-10)
				break
			}
			fmt.Fprintf(w, "  %v\n", emb)
		}
		if showTime {
			printTime(w, enum.Stats)
		}
	default:
		return fmt.Errorf("unknown semantics %q", semantics)
	}
	return nil
}

func printTime(w io.Writer, s gpm.MatchStats) {
	if s.Oracle != gpm.OracleNone {
		fmt.Fprintf(w, "oracle: %s, build %v (%d queries, %d scans)\n", s.Oracle, s.OracleBuild, s.OracleQueries, s.SweepScans)
	}
	fmt.Fprintf(w, "match: %v\n", s.MatchTime)
}

func printRelation(w io.Writer, name string, res *gpm.Result, p *gpm.Pattern) {
	fmt.Fprintf(w, "%s: ok=%v, |S|=%d pairs\n", name, res.OK(), res.Pairs())
	for u := 0; u < p.N(); u++ {
		mat := res.Mat(u)
		fmt.Fprintf(w, "  mat(%d) [%s]: %d nodes", u, p.Pred(u), len(mat))
		if len(mat) <= 12 {
			fmt.Fprintf(w, " %v", mat)
		}
		fmt.Fprintln(w)
	}
}
