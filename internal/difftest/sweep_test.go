package difftest

import (
	"context"
	"reflect"
	"testing"

	"gpm"
	"gpm/internal/core"
	"gpm/internal/simulation"
	"gpm/internal/topo"
)

// Property (d'): handing MatchOpts a frozen snapshot replaces pairwise
// probes with witness sweeps but must not change the answer or the work
// the fixpoint does. A snapshot run ignores its oracle (core pins that),
// so each pattern runs the snapshot kernel once, with no oracle — the
// engine's configuration — at every worker count, with the default
// witness-matrix cap and with no witness matrix kept (cap 0), where
// removals walk arcs or sweep back from the removed node. Its relation,
// InitialPairs and Removals must equal the paper's Fig. 4 run over the
// distance matrix, which probes the oracle for every candidate pair, and
// every other oracle kind's Fig. 4 run must equal that one too.
// Coloured workloads repeat the check with bounded and "*" coloured
// edges, and a ranged row turns every other edge of their patterns into
// a hop range. No oracle answers a coloured or ranged edge, so every run
// sweeps it; those rows take their relation from core.MatchNaive, a
// rescan that shares no code with the sweeps.
//
// The same kernel run without an oracle on all-bounds-one patterns is
// plain simulation, and with its parent constraints dual simulation.
// Their rows are refereed by simulation.RunNaive and topo.NaiveDualSim,
// rescans that share no code with the kernel, and must repeat one run's
// InitialPairs and Removals under every limit and worker count.
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
			"2hop":   core.BuildTwoHopOracle(w.G),
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
			var want core.Stats
			ref, err := core.MatchContext(ctx, p, w.G, oracles["matrix"], &want)
			if err != nil {
				t.Fatalf("seed %d pattern %d: probing run: %v", seed, pi, err)
			}
			if p.Colored() || p.Ranged() {
				if ref, err = core.MatchNaive(p, w.G, oracles["matrix"]); err != nil {
					t.Fatalf("seed %d pattern %d: MatchNaive: %v", seed, pi, err)
				}
			}
			for kind, o := range oracles {
				var got core.Stats
				res, err := core.MatchContext(ctx, p, w.G, o, &got)
				if err != nil {
					t.Fatalf("seed %d pattern %d %s: probing run: %v", seed, pi, kind, err)
				}
				if res.OK() != ref.OK() || !RelationsEqual(res.Relation(), ref.Relation()) {
					t.Errorf("seed %d pattern %d %s: Fig. 4 run diverges from the reference: %s",
						seed, pi, kind, DiffRelations(res.Relation(), ref.Relation()))
				}
				if got.InitialPairs != want.InitialPairs || got.Removals != want.Removals {
					t.Errorf("seed %d pattern %d %s: Fig. 4 pairs/removals %d/%d, matrix %d/%d",
						seed, pi, kind, got.InitialPairs, got.Removals, want.InitialPairs, want.Removals)
				}
			}
			checkAcrossLimits(t, seed, pi, "snapshot", ref.Relation(), ref.OK(), want, func(workers int, st *core.Stats) (*core.Result, error) {
				return core.MatchOpts(ctx, p, w.G, nil, st, core.MatchOptions{Frozen: f, Workers: workers})
			})
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
// with the default witness-matrix cap and with none kept, and compares
// each run's relation with want and its InitialPairs and Removals with
// wantStats.
func checkAcrossLimits(t *testing.T, seed int64, pi int, row string, want [][]int32, wantOK bool, wantStats core.Stats,
	run func(workers int, st *core.Stats) (*core.Result, error)) {
	t.Helper()
	limits := []struct {
		name string
		cap  int64
	}{
		{"default", -1},
		{"no-witness-matrix", 0},
	}
	for _, lim := range limits {
		restore := core.SweepLimitsForTest(lim.cap)
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
// edge, so a match query on a pattern made only of coloured bounded,
// coloured "*" or ranged edges issues no probe and returns
// core.MatchNaive's relation.
func TestLabelledEdgesProbeNoOracle(t *testing.T) {
	ctx := context.Background()
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
		eng := gpm.NewEngine(w.G)
		for _, p := range w.Patterns {
			for name, rewrite := range rewrites {
				q := rewriteEdges(p, rewrite)
				want, err := core.MatchNaive(q, w.G, core.BuildMatrixOracle(w.G))
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: q})
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				if got.Stats.OracleQueries != 0 {
					t.Errorf("seed %d %s: %d oracle probes, want 0", seed, name, got.Stats.OracleQueries)
				}
				if got.OK != want.OK() || !RelationsEqual(got.Relation, want.Relation()) {
					t.Errorf("seed %d %s: %s", seed, name, DiffRelations(got.Relation, want.Relation()))
				}
			}
		}
	}
}

// TestSweepModeProbesOnlyAtInit: in sweep mode no probe happens at all,
// at counter init or after. With no witness matrix kept
// (SweepLimitsForTest(0)), match queries on plain patterns (bounds 1..3
// and "*"), sim and dual issue no probe — a removal walks arcs at k = 1
// and sweeps back from the removed node otherwise — and return the
// relations of core.MatchNaive, simulation.RunNaive and
// topo.NaiveDualSim. Sim and dual run on a coloured workload, and the
// dual result graph, whose witnesses the engine reads off the adjacency,
// equals the one the matrix oracle and walkLengths build.
func TestSweepModeProbesOnlyAtInit(t *testing.T) {
	defer core.SweepLimitsForTest(0)()
	ctx := context.Background()
	check := func(seed int64, pi int, name string, res *gpm.RelationResult, want [][]int32, wantOK bool) {
		t.Helper()
		if res.Stats.OracleQueries != 0 {
			t.Errorf("seed %d pattern %d %s: %d oracle probes, want 0", seed, pi, name, res.Stats.OracleQueries)
		}
		if res.OK != wantOK || !RelationsEqual(res.Relation, want) {
			t.Errorf("seed %d pattern %d %s: %s", seed, pi, name, DiffRelations(res.Relation, want))
		}
	}
	var removals int64
	for seed := int64(1); seed <= workloads/2; seed++ {
		w := NewWorkload(seed, Config{StarProb: 0.2})
		k1 := NewWorkload(seed, Config{K: 1, Colors: 2, Attrs: 3, IsoBias: true})
		f := k1.G.Freeze()
		eng, k1Eng := gpm.NewEngine(w.G), gpm.NewEngine(k1.G)
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
			m, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d match: %v", seed, pi, err)
			}
			check(seed, pi, "match", m, want.Relation(), want.OK())
			s, err := k1Eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: q})
			if err != nil {
				t.Fatalf("seed %d pattern %d sim: %v", seed, pi, err)
			}
			check(seed, pi, "sim", s, simRel, simOK)
			d, err := k1Eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: q})
			if err != nil {
				t.Fatalf("seed %d pattern %d dual: %v", seed, pi, err)
			}
			check(seed, pi, "dual", d, dualRel, dualOK)
			wantRG := core.BuildResultGraph(core.NewResult(q, k1.G, dualRel, dualOK), core.BuildMatrixOracle(k1.G))
			if got := k1Eng.ResultGraph(q, d); !reflect.DeepEqual(got, wantRG) {
				t.Errorf("seed %d pattern %d dual: result graph differs from the matrix-probed one", seed, pi)
			}
			removals += m.Stats.Removals + s.Stats.Removals + d.Stats.Removals
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
