// Command benchmark is the gpmd regression benchmark. It generates a
// workload's inputs from a seed, builds ./cmd/gpmd, runs it as a child
// process and drives it over loopback HTTP, checks every answer against
// an independent in-process reference, and prints the end-to-end metrics
// BENCHMARK.json names; with -trace 1 it instead replays a fixed sample
// of the workload in-process, layer by layer, and prints the per-layer
// metrics. See README.md.
//
//	bash benchmark/run.sh -workload hot-zipf -seed 1 -seconds 8 -trace 0
//	bash benchmark/run.sh -all -runs 10 -out a.json
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run once: "+workloadNames())
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 8, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end run against a gpmd child; 1: in-process traced run, per-layer metrics")
		all     = flag.Bool("all", false, "run every workload: -runs end-to-end runs on seeds seed, seed+1, ... and one traced run")
		runs    = flag.Int("runs", 1, "with -all: end-to-end runs per workload")
		out     = flag.String("out", "", "with -all: write the run set to this file for -compare")
		smoke   = flag.Bool("smoke", false, "tiny sizes; alone, runs every workload end to end and traced, half a second each")
		compare = flag.Bool("compare", false, "compare two run sets: -compare a.json b.json")
		root    = flag.String("root", ".", "repository root")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two run-set files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), filepath.Join(*root, "BENCHMARK.json"))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(*root, *smoke)
	if err != nil {
		fatal(err)
	}
	switch {
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames()))
		}
		rep, err := runOnce(ctx, e, w, *seed, *seconds, *trace != 0)
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stdout)
		line, err := json.Marshal(rep.result)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !rep.Correct {
			os.Exit(1)
		}
	case *all || *smoke:
		if *smoke {
			*seconds = 0.5
		}
		set, err := runAll(ctx, e, *seed, *seconds, *runs)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := set.write(*out); err != nil {
				fatal(err)
			}
		}
		if !set.correct() {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// newEnv builds the daemon under test into <root>/.bench_build.
func newEnv(root string, smoke bool) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: root, dir: filepath.Join(root, ".bench_build"), smoke: smoke}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	e.gpmd, err = buildDaemon(root, e.dir)
	return e, err
}

// runOnce is one run of the contract: end to end, or traced. The metrics
// it returns are exactly the ones BENCHMARK.json declares for that kind
// of run, whatever the workload.
func runOnce(ctx context.Context, e *env, w *workload, seed int64, seconds float64, traced bool) (*report, error) {
	run := endToEnd
	if traced {
		run = tracedRun
	}
	rep, err := run(ctx, e, w, seed, seconds)
	if err != nil {
		return nil, err
	}
	decl, err := readDeclared(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	for _, m := range want {
		if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			return nil, fmt.Errorf("%s: metric %s (%s) is declared in BENCHMARK.json but was reported as %+v", w.name, m.Name, m.Unit, got)
		}
	}
	if len(rep.Metrics) != len(want) {
		return nil, fmt.Errorf("%s: %d metrics reported, %d declared in BENCHMARK.json", w.name, len(rep.Metrics), len(want))
	}
	return rep, nil
}
