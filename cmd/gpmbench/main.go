// Command gpmbench regenerates the paper's tables and figures against the
// synthetic dataset stand-ins.
//
// Usage:
//
//	gpmbench [-exp all|datasets|6a|6b|6c|6d|6e|6f|6g|6h|6i|6j|6k|fig9|gr|aff|2hop|oracle|oracle-parallel|million|ablation|parallel|topo|plan|incsim]
//	         [-scale 0.15] [-seed N] [-patterns 5] [-nodes N] [-workers N] [-json] [-v]
//
// -scale 1.0 reproduces the paper's exact dataset sizes; distance
// matrices over the memory budget are transparently replaced by the PLL
// labelling (tables note the substitution), so full scale stays under
// 1 GB. -exp million generates a 1M-node/10M-edge Barabási–Albert graph
// at -scale 1.0 and matches it on the PLL oracle against a BFS-reference
// checksum; -exp oracle compares build time and memory across all
// oracles and measures the batched-parallel PLL build per worker count
// (CI stores its -json form as bench_oracle.json); -exp plan measures
// the subgraph-isomorphism query planner (symmetry breaking plus
// counting) against unplanned VF2 (CI stores bench_plan.json). The
// daemon itself is measured by benchmark/, not here. -workers sets the
// parallel-build concurrency for experiments that build indexes
// (0 = GOMAXPROCS). -json emits one machine-readable document instead
// of aligned tables, so successive runs can accumulate a perf
// trajectory (BENCH_*.json). EXPERIMENTS.md records reference output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gpm/internal/bench"
)

// jsonReport is the -json output document: enough run metadata to make
// one run comparable with the next, plus the raw tables.
type jsonReport struct {
	Exp       string         `json:"exp"`
	Scale     float64        `json:"scale"`
	Seed      int64          `json:"seed"`
	Patterns  int            `json:"patterns"`
	Nodes     int            `json:"nodes"`
	Workers   int            `json:"workers"`
	GoVersion string         `json:"go_version"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	CPUs      int            `json:"cpus"`
	Timestamp string         `json:"timestamp"`
	Elapsed   string         `json:"elapsed"`
	Tables    []*bench.Table `json:"tables"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see DESIGN.md per-experiment index)")
		scale    = flag.Float64("scale", 0.15, "dataset scale factor in (0,1]; 1.0 = paper-exact sizes")
		seed     = flag.Int64("seed", 0, "base RNG seed (0 = built-in default)")
		patterns = flag.Int("patterns", 0, "patterns averaged per data point (0 = default 5; paper used 20)")
		nodes    = flag.Int("nodes", 0, "synthetic graph node count (0 = 20000*scale; paper used 20000)")
		workers  = flag.Int("workers", 0, "parallel-build worker count (0 = GOMAXPROCS)")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of aligned tables")
		verbose  = flag.Bool("v", false, "log progress to stderr")
	)
	flag.Parse()

	cfg := bench.Config{
		Scale:      *scale,
		Seed:       *seed,
		Patterns:   *patterns,
		SynthNodes: *nodes,
		Workers:    *workers,
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	start := time.Now()
	tables, err := bench.ByID(*exp, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *asJSON {
		report := makeReport(*exp, cfg, start, time.Since(start), tables)
		if err := writeJSON(os.Stdout, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for _, t := range tables {
		t.Fprint(os.Stdout)
	}
}

// makeReport assembles the -json document for one run.
func makeReport(exp string, cfg bench.Config, start time.Time, elapsed time.Duration, tables []*bench.Table) jsonReport {
	resolved := cfg.Resolved()
	return jsonReport{
		Exp:       exp,
		Scale:     resolved.Scale,
		Seed:      resolved.Seed,
		Patterns:  resolved.Patterns,
		Nodes:     resolved.SynthNodes,
		Workers:   resolved.Workers,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.GOMAXPROCS(0),
		Timestamp: start.UTC().Format(time.RFC3339),
		Elapsed:   elapsed.String(),
		Tables:    tables,
	}
}

// writeJSON encodes one report in the BENCH_*.json trajectory schema.
func writeJSON(w io.Writer, report jsonReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
