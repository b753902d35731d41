// Command gpmincr demonstrates incremental matching: it loads a graph, a
// pattern and an update stream, maintains a match through the updates
// with an engine watcher, and compares against recomputing from scratch.
//
// Usage:
//
//	gpmincr -graph g.graph -pattern p.pattern -updates u.updates
//	        [-semantics match|sim|dual|strong] [-chunk 100] [-verify]
//
// -semantics selects the maintained relation: "match" is the paper's
// bounded-simulation IncMatch (the default); "sim", "dual" and "strong"
// maintain the edge-to-edge semantics lattice incrementally (Ma et al.,
// VLDB 2012) and require an all-bounds-one pattern. Updates are applied
// in chunks; for each chunk the tool reports the incremental time and
// the relation delta, and -verify cross-checks the maintained relation
// against a from-scratch recompute of the same semantics.
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

func main() {
	var (
		graphPath   = flag.String("graph", "", "data graph file (required)")
		patternPath = flag.String("pattern", "", "pattern file (required)")
		updatesPath = flag.String("updates", "", "update stream file (required)")
		semantics   = flag.String("semantics", "match", "maintained semantics: match, sim, dual or strong")
		chunk       = flag.Int("chunk", 100, "updates per batch")
		verify      = flag.Bool("verify", false, "cross-check each chunk against a from-scratch recompute")
	)
	flag.Parse()
	if *graphPath == "" || *patternPath == "" || *updatesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *graphPath, *patternPath, *updatesPath, *semantics, *chunk, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "gpmincr:", err)
		os.Exit(1)
	}
}

// watchFor starts the watcher matching the -semantics flag.
func watchFor(eng *gpm.Engine, p *gpm.Pattern, semantics string) (*gpm.Watcher, error) {
	switch semantics {
	case "match":
		return eng.Watch(p)
	case "sim":
		return eng.WatchSim(p)
	case "dual":
		return eng.WatchDual(p)
	case "strong":
		return eng.WatchStrong(p)
	default:
		return nil, fmt.Errorf("unknown semantics %q (want match, sim, dual or strong)", semantics)
	}
}

// recompute runs the from-scratch query matching the -semantics flag on
// the engine's current graph and returns its relation.
func recompute(eng *gpm.Engine, p *gpm.Pattern, semantics string) ([][]int32, bool, error) {
	ctx := context.Background()
	// A throwaway engine over the live graph: the scratch query is
	// read-only, and its snapshot freeze is charged to the
	// scratch time the way the paper charges recomputation.
	scratch := gpm.NewEngine(eng.Graph())
	switch semantics {
	case "match":
		res, err := scratch.Match(ctx, p)
		if err != nil {
			return nil, false, err
		}
		return res.Relation(), res.OK(), nil
	case "sim":
		res, err := scratch.Simulate(ctx, p)
		if err != nil {
			return nil, false, err
		}
		return res.Relation, res.OK, nil
	case "dual":
		res, err := scratch.DualSimulate(ctx, p)
		if err != nil {
			return nil, false, err
		}
		return res.Relation(), res.OK(), nil
	case "strong":
		res, err := scratch.StrongSimulate(ctx, p)
		if err != nil {
			return nil, false, err
		}
		return res.Relation(), res.OK(), nil
	}
	return nil, false, fmt.Errorf("unknown semantics %q", semantics)
}

func run(out io.Writer, graphPath, patternPath, updatesPath, semantics string, chunk int, verify bool) error {
	g, err := gpm.LoadGraphFile(graphPath)
	if err != nil {
		return err
	}
	p, err := gpm.LoadPatternFile(patternPath)
	if err != nil {
		return err
	}
	f, err := os.Open(updatesPath)
	if err != nil {
		return err
	}
	ups, err := gpm.ReadUpdates(f)
	f.Close()
	if err != nil {
		return err
	}

	eng := gpm.NewEngine(g)
	start := time.Now()
	w, err := watchFor(eng, p, semantics)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "initial %s watch: ok=%v |S|=%d (built in %v)\n", semantics, w.OK(), w.Pairs(), time.Since(start))

	if chunk <= 0 {
		chunk = len(ups)
	}
	for off := 0; off < len(ups); off += chunk {
		end := off + chunk
		if end > len(ups) {
			end = len(ups)
		}
		batch := ups[off:end]
		t0 := time.Now()
		deltas, err := eng.Update(batch...)
		if err != nil {
			return fmt.Errorf("chunk at %d: %w", off, err)
		}
		incTime := time.Since(t0)
		delta := deltas[0].Delta
		fmt.Fprintf(out, "chunk %4d..%-4d  inc: %-12v +%d -%d pairs  |AFF1|=%d |AFF2|=%d recomputed=%v\n",
			off, end-1, incTime, len(delta.Added), len(delta.Removed), delta.Aff1, delta.Aff2, delta.Recomputed)
		if verify {
			t1 := time.Now()
			rel, ok, err := recompute(eng, p, semantics)
			if err != nil {
				return err
			}
			scratchTime := time.Since(t1)
			wantSum, gotSum := difftest.Checksum(rel), difftest.Checksum(w.Relation())
			fmt.Fprintf(out, "    scratch: %-12v ok=%v |S|=%d checksum=%016x\n", scratchTime, ok, countPairs(rel), wantSum)
			if ok != w.OK() || gotSum != wantSum {
				return fmt.Errorf("divergence after chunk at %d: inc checksum %016x, scratch %016x", off, gotSum, wantSum)
			}
		}
	}
	fmt.Fprintf(out, "final: ok=%v |S|=%d checksum=%016x\n", w.OK(), w.Pairs(), difftest.Checksum(w.Relation()))
	return nil
}

func countPairs(rel [][]int32) int {
	total := 0
	for _, row := range rel {
		total += len(row)
	}
	return total
}
