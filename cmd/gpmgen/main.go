// Command gpmgen generates synthetic data graphs, pattern graphs and
// update streams in the text formats of package gio.
//
// Usage:
//
//	gpmgen graph   -nodes 1000 -edges 4000 [-attrs 100] [-model er|powerlaw|communities|ba] [-powerlaw m] [-seed 1] [-o out.graph]
//	gpmgen dataset -name youtube [-scale 0.15] [-seed 1] [-o out.graph]
//	gpmgen pattern -graph g.graph -nodes 4 -edges 4 -k 3 [-star 0.1] [-seed 1] [-check] [-o out.pattern]
//	gpmgen updates -graph g.graph -ins 100 -del 100 [-seed 1] [-o out.updates]
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
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "graph":
		err = genGraph(os.Args[2:])
	case "dataset":
		err = genDataset(os.Args[2:])
	case "pattern":
		err = genPattern(os.Args[2:])
	case "updates":
		err = genUpdates(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmgen:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gpmgen graph|dataset|pattern|updates [flags] (see -h of each subcommand)")
	os.Exit(2)
}

func outWriter(path string) (io.WriteCloser, error) {
	if path == "" || path == "-" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

func closeOut(w io.WriteCloser) {
	if w != os.Stdout {
		w.Close()
	}
}

func genGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	nodes := fs.Int("nodes", 1000, "node count")
	edges := fs.Int("edges", 4000, "edge count")
	attrs := fs.Int("attrs", 100, "attribute alphabet size")
	model := fs.String("model", "er", "er | powerlaw | communities | ba")
	powerlaw := fs.Int("powerlaw", 0, "Barabási–Albert growth with this out-degree per node (overrides -model and -edges)")
	seed := fs.Int64("seed", 1, "rng seed")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	m := map[string]gpm.GraphModel{
		"er": gpm.ModelER, "powerlaw": gpm.ModelPowerLaw,
		"communities": gpm.ModelCommunities, "ba": gpm.ModelBarabasiAlbert,
	}[*model]
	cfg := gpm.GraphGenConfig{Nodes: *nodes, Edges: *edges, Attrs: *attrs, Model: m, Seed: *seed}
	if *powerlaw > 0 {
		cfg.Model = gpm.ModelBarabasiAlbert
		cfg.MOut = *powerlaw
	}
	g := gpm.GenerateGraph(cfg)
	w, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer closeOut(w)
	return gpm.WriteGraph(w, g)
}

func genDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	name := fs.String("name", "youtube", "matter | pblog | youtube")
	scale := fs.Float64("scale", 0.15, "scale factor (1.0 = paper-exact size)")
	seed := fs.Int64("seed", 1, "rng seed")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	g, err := gpm.Dataset(*name, *seed, *scale)
	if err != nil {
		return err
	}
	w, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer closeOut(w)
	return gpm.WriteGraph(w, g)
}

func genPattern(args []string) error {
	fs := flag.NewFlagSet("pattern", flag.ExitOnError)
	graphPath := fs.String("graph", "", "data graph file (required)")
	nodes := fs.Int("nodes", 4, "pattern nodes")
	edges := fs.Int("edges", 4, "pattern edges")
	k := fs.Int("k", 3, "bound upper limit")
	star := fs.Float64("star", 0, "probability of an unbounded (*) edge")
	seed := fs.Int64("seed", 1, "rng seed")
	check := fs.Bool("check", false, "match the generated pattern against the graph and report the outcome on stderr")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	if *graphPath == "" {
		return fmt.Errorf("pattern: -graph is required")
	}
	g, err := gpm.LoadGraphFile(*graphPath)
	if err != nil {
		return err
	}
	p := gpm.GeneratePattern(gpm.PatternGenConfig{
		Nodes: *nodes, Edges: *edges, K: *k, StarProb: *star, Seed: *seed,
	}, g)
	if *check {
		res, err := gpm.NewEngine(g).RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "check: ok=%v |S|=%d (match %v)\n", res.OK, res.Pairs(), res.Stats.MatchTime)
	}
	w, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer closeOut(w)
	return gpm.WritePattern(w, p)
}

func genUpdates(args []string) error {
	fs := flag.NewFlagSet("updates", flag.ExitOnError)
	graphPath := fs.String("graph", "", "data graph file (required)")
	ins := fs.Int("ins", 0, "insertions")
	del := fs.Int("del", 0, "deletions")
	seed := fs.Int64("seed", 1, "rng seed")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	if *graphPath == "" {
		return fmt.Errorf("updates: -graph is required")
	}
	g, err := gpm.LoadGraphFile(*graphPath)
	if err != nil {
		return err
	}
	ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{Insertions: *ins, Deletions: *del, Seed: *seed}, g)
	w, err := outWriter(*out)
	if err != nil {
		return err
	}
	defer closeOut(w)
	return gpm.WriteUpdates(w, ups)
}
