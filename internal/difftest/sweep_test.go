package difftest

import (
	"context"
	"math"
	"testing"

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
// kept (cap 0), where removals probe again.
//
// The same kernel run without an oracle is plain simulation, and with
// its parent constraints dual simulation. Their rows are refereed by
// simulation.RunNaive and topo.NaiveDualSim, rescans that share no code
// with the kernel, and must repeat one run's InitialPairs and Removals
// under every limit and worker count.
func TestSweepEqualsProbeAcrossOraclesAndWorkers(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{StarProb: 0.2})
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
		for pi, p := range w.Patterns {
			for kind, o := range oracles {
				var want core.Stats
				ref, err := core.MatchContext(ctx, p, w.G, o, &want)
				if err != nil {
					t.Fatalf("seed %d pattern %d %s: probing run: %v", seed, pi, kind, err)
				}
				checkAcrossLimits(t, seed, pi, kind, ref.Relation(), ref.OK(), want, func(workers int, st *core.Stats) (*core.Result, error) {
					return core.MatchOpts(ctx, p, w.G, o, st, core.MatchOptions{Frozen: f, Workers: workers})
				})
			}
		}

		w = NewWorkload(seed, Config{K: 1})
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
