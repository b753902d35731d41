package difftest

import (
	"context"
	"math"
	"reflect"
	"testing"

	"gpm"
	"gpm/internal/core"
	"gpm/internal/simulation"
	"gpm/internal/topo"
	"gpm/internal/twohop"
)

// Property (d'): handing MatchOpts a frozen snapshot replaces pairwise
// probes with witness sweeps but must not change the answer or the work
// the fixpoint does: relation, InitialPairs and Removals equal the
// snapshot-less run (the paper's Fig. 4, which probes the oracle for
// every candidate pair) — for every oracle kind, since each prices a
// probe differently and so falls back to probing at different points, at
// every worker count, and at both extremes of the cost rule: every block
// probed (budget 0), every block swept (budget ∞), and no witness matrix
// kept (cap 0), where removals probe again. Coloured workloads repeat
// the check with bounded and "*" coloured edges, and a ranged row turns
// every other edge of their patterns into a hop range. No oracle answers
// a coloured or ranged edge, so every run sweeps it whatever the budget,
// and at cap 0 sweeps once from each removed node; those rows take their
// relation from core.MatchNaive, a rescan that shares no code with the
// sweeps, and their InitialPairs and Removals from the probing run.
//
// The same kernel run without an oracle is plain simulation, and with
// its parent constraints dual simulation. Their rows are refereed by
// simulation.RunNaive and topo.NaiveDualSim, rescans that share no code
// with the kernel, and must repeat one run's InitialPairs and Removals
// under every limit and worker count.
func TestSweepEqualsProbeAcrossOraclesAndWorkers(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 2*workloads; seed++ {
		cfg := Config{StarProb: 0.2}
		if seed > workloads {
			cfg.Colors = 2
		}
		w := NewWorkload(seed, cfg)
		f := w.G.Freeze()
		pllO, err := core.BuildPLLOracle(ctx, w.G)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracles := map[string]core.DistOracle{
			"matrix": core.BuildMatrixOracle(w.G),
			"bfs":    core.NewBFSOracleFrozen(f),
			"2hop":   core.NewTwoHopOracleFrozen(f, twohop.Build(w.G)),
			"pll":    pllO,
		}
		patterns := w.Patterns
		if cfg.Colors > 0 {
			for _, p := range w.Patterns {
				patterns = append(patterns, rewriteEdges(p, func(i int, e gpm.PatternEdge) gpm.PatternEdge {
					if i%2 == 0 {
						return ranged(e)
					}
					return e
				}))
			}
		}
		for pi, p := range patterns {
			var naive *core.Result
			if p.Colored() || p.Ranged() {
				if naive, err = core.MatchNaive(p, w.G, oracles["matrix"]); err != nil {
					t.Fatalf("seed %d pattern %d: MatchNaive: %v", seed, pi, err)
				}
			}
			for kind, o := range oracles {
				var want core.Stats
				ref, err := core.MatchContext(ctx, p, w.G, o, &want)
				if err != nil {
					t.Fatalf("seed %d pattern %d %s: probing run: %v", seed, pi, kind, err)
				}
				if naive != nil {
					ref = naive
				}
				checkAcrossLimits(t, seed, pi, kind, ref.Relation(), ref.OK(), want, func(workers int, st *core.Stats) (*core.Result, error) {
					return core.MatchOpts(ctx, p, w.G, o, st, core.MatchOptions{Frozen: f, Workers: workers})
				})
			}
		}

		cfg.K, cfg.StarProb = 1, 0
		w = NewWorkload(seed, cfg)
		f = w.G.Freeze()
		for pi, p := range w.Patterns {
			simRel, simOK, err := simulation.RunNaive(p, f)
			if err != nil {
				t.Fatalf("seed %d pattern %d: RunNaive: %v", seed, pi, err)
			}
			dualRel, dualOK := topo.NaiveDualSim(p, f, nil)
			for _, row := range []struct {
				name string
				dual bool
				rel  [][]int32
				ok   bool
			}{{"sim", false, simRel, simOK}, {"dual", true, dualRel, dualOK}} {
				run := func(workers int, st *core.Stats) (*core.Result, error) {
					return core.MatchOpts(ctx, p, w.G, nil, st, core.MatchOptions{Frozen: f, Workers: workers, Dual: row.dual})
				}
				var want core.Stats
				if _, err := run(1, &want); err != nil {
					t.Fatalf("seed %d pattern %d %s: %v", seed, pi, row.name, err)
				}
				checkAcrossLimits(t, seed, pi, row.name, row.rel, row.ok, want, run)
			}
		}
	}
}

// checkAcrossLimits runs one kernel configuration at workers 1/2/4/8
// under the cost rule and its three extremes, and compares each run's
// relation with want and its InitialPairs and Removals with wantStats.
func checkAcrossLimits(t *testing.T, seed int64, pi int, row string, want [][]int32, wantOK bool, wantStats core.Stats,
	run func(workers int, st *core.Stats) (*core.Result, error)) {
	t.Helper()
	limits := []struct {
		name        string
		budget, cap int64
	}{
		{"rule", -1, -1},
		{"all-fallback", 0, -1},
		{"all-sweep", math.MaxInt64, -1},
		{"no-witness-matrix", -1, 0},
	}
	for _, lim := range limits {
		restore := core.SweepLimitsForTest(lim.budget, lim.cap)
		for _, workers := range []int{1, 2, 4, 8} {
			var got core.Stats
			res, err := run(workers, &got)
			if err != nil {
				restore()
				t.Fatalf("seed %d pattern %d %s %s workers %d: %v", seed, pi, row, lim.name, workers, err)
			}
			if res.OK() != wantOK || !RelationsEqual(res.Relation(), want) {
				t.Errorf("seed %d pattern %d %s %s workers %d: sweep diverges from the reference: %s",
					seed, pi, row, lim.name, workers, DiffRelations(res.Relation(), want))
			}
			if got.InitialPairs != wantStats.InitialPairs || got.Removals != wantStats.Removals {
				t.Errorf("seed %d pattern %d %s %s workers %d: pairs/removals %d/%d, reference %d/%d",
					seed, pi, row, lim.name, workers, got.InitialPairs, got.Removals, wantStats.InitialPairs, wantStats.Removals)
			}
		}
		restore()
	}
}

// TestLabelledEdgesProbeNoOracle: no oracle answers a coloured or ranged
// edge, so Engine.Match on a pattern made only of coloured bounded,
// coloured "*" or ranged edges issues no probe under any oracle kind,
// and returns core.MatchNaive's relation.
func TestLabelledEdgesProbeNoOracle(t *testing.T) {
	ctx := context.Background()
	kinds := []gpm.OracleKind{gpm.OracleMatrix, gpm.OracleBFS, gpm.OracleTwoHop, gpm.OraclePLL}
	colour := func(e gpm.PatternEdge) gpm.PatternEdge {
		if e.Color == "" {
			e.Color = "c0"
		}
		return e
	}
	rewrites := map[string]func(i int, e gpm.PatternEdge) gpm.PatternEdge{
		"coloured":      func(_ int, e gpm.PatternEdge) gpm.PatternEdge { return colour(e) },
		"coloured-star": func(_ int, e gpm.PatternEdge) gpm.PatternEdge { e.Bound = gpm.Unbounded; return colour(e) },
		"ranged":        func(_ int, e gpm.PatternEdge) gpm.PatternEdge { return ranged(e) },
	}
	for seed := int64(1); seed <= workloads/2; seed++ {
		w := NewWorkload(seed, Config{Colors: 2, StarProb: 0.2})
		for _, p := range w.Patterns {
			for name, rewrite := range rewrites {
				q := rewriteEdges(p, rewrite)
				want, err := core.MatchNaive(q, w.G, core.BuildMatrixOracle(w.G))
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range kinds {
					got, err := gpm.NewEngine(w.G, gpm.WithOracle(kind)).Match(ctx, q)
					if err != nil {
						t.Fatalf("seed %d %s %v: %v", seed, name, kind, err)
					}
					if got.Stats.OracleQueries != 0 {
						t.Errorf("seed %d %s %v: %d oracle probes, want 0", seed, name, kind, got.Stats.OracleQueries)
					}
					if got.OK() != want.OK() || !RelationsEqual(got.Relation(), want.Relation()) {
						t.Errorf("seed %d %s %v: %s", seed, name, kind, DiffRelations(got.Relation(), want.Relation()))
					}
				}
			}
		}
	}
}

// TestSweepModeProbesOnlyAtInit: in sweep mode no probe happens after
// counter init. With every block swept and no witness matrix kept
// (SweepLimitsForTest(math.MaxInt64, 0)), Engine.Match on plain
// patterns (bounds 1..3 and "*"), Simulate and DualSimulate issue no
// probe under any oracle kind — a removal walks arcs at k = 1 and sweeps
// back from the removed node otherwise — and return the relations of
// core.MatchNaive, simulation.RunNaive and topo.NaiveDualSim. Sim and
// dual run on a coloured workload, and the dual result graph, whose
// witnesses the engine reads off the adjacency, equals the one the
// matrix oracle and walkLengths build.
func TestSweepModeProbesOnlyAtInit(t *testing.T) {
	defer core.SweepLimitsForTest(math.MaxInt64, 0)()
	ctx := context.Background()
	kinds := []gpm.OracleKind{gpm.OracleMatrix, gpm.OracleBFS, gpm.OracleTwoHop, gpm.OraclePLL}
	check := func(seed int64, pi int, name string, kind gpm.OracleKind, probes int64, got, want [][]int32, gotOK, wantOK bool) {
		t.Helper()
		if probes != 0 {
			t.Errorf("seed %d pattern %d %s %v: %d oracle probes, want 0", seed, pi, name, kind, probes)
		}
		if gotOK != wantOK || !RelationsEqual(got, want) {
			t.Errorf("seed %d pattern %d %s %v: %s", seed, pi, name, kind, DiffRelations(got, want))
		}
	}
	var removals int64
	for seed := int64(1); seed <= workloads/2; seed++ {
		w := NewWorkload(seed, Config{StarProb: 0.2})
		k1 := NewWorkload(seed, Config{K: 1, Colors: 2, Attrs: 3, IsoBias: true})
		f := k1.G.Freeze()
		for pi := range w.Patterns {
			p, q := w.Patterns[pi], k1.Patterns[pi]
			want, err := core.MatchNaive(p, w.G, core.BuildMatrixOracle(w.G))
			if err != nil {
				t.Fatal(err)
			}
			simRel, simOK, err := simulation.RunNaive(q, f)
			if err != nil {
				t.Fatal(err)
			}
			dualRel, dualOK := topo.NaiveDualSim(q, f, nil)
			for _, kind := range kinds {
				m, err := gpm.NewEngine(w.G, gpm.WithOracle(kind)).Match(ctx, p)
				if err != nil {
					t.Fatalf("seed %d pattern %d match %v: %v", seed, pi, kind, err)
				}
				check(seed, pi, "match", kind, m.Stats.OracleQueries, m.Relation(), want.Relation(), m.OK(), want.OK())
				eng := gpm.NewEngine(k1.G, gpm.WithOracle(kind))
				s, err := eng.Simulate(ctx, q)
				if err != nil {
					t.Fatalf("seed %d pattern %d sim %v: %v", seed, pi, kind, err)
				}
				check(seed, pi, "sim", kind, s.Stats.OracleQueries, s.Relation, simRel, s.OK, simOK)
				d, err := eng.DualSimulate(ctx, q)
				if err != nil {
					t.Fatalf("seed %d pattern %d dual %v: %v", seed, pi, kind, err)
				}
				check(seed, pi, "dual", kind, d.Stats.OracleQueries, d.Relation(), dualRel, d.OK(), dualOK)
				if got, want := eng.ResultGraphOf(d.Result), core.BuildResultGraph(d.Result, core.BuildMatrixOracle(k1.G)); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d pattern %d dual %v: result graph differs from the matrix-probed one", seed, pi, kind)
				}
				removals += m.Stats.Removals + s.Stats.Removals + d.Stats.Removals
			}
		}
	}
	if removals == 0 {
		t.Fatal("no run removed a pair: nothing went through remove")
	}
}

// ranged turns e into a hop range [2, bound+1], "*" into [2, 4].
func ranged(e gpm.PatternEdge) gpm.PatternEdge {
	if e.Bound == gpm.Unbounded {
		e.Bound = 3
	}
	e.MinBound, e.Bound = 2, e.Bound+1
	return e
}

// rewriteEdges returns p with its i-th edge e replaced by rewrite(i, e).
func rewriteEdges(p *gpm.Pattern, rewrite func(i int, e gpm.PatternEdge) gpm.PatternEdge) *gpm.Pattern {
	q := gpm.NewPattern()
	for u := 0; u < p.N(); u++ {
		q.AddNode(p.Pred(u))
	}
	for i, e := range p.Edges() {
		e = rewrite(i, e)
		var err error
		if e.Ranged() {
			_, err = q.AddRangeEdge(e.From, e.To, e.MinBound, e.Bound, e.Color)
		} else {
			_, err = q.AddColoredEdge(e.From, e.To, e.Bound, e.Color)
		}
		if err != nil {
			panic(err)
		}
	}
	return q
}
