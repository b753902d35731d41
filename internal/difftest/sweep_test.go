package difftest

import (
	"context"
	"math"
	"testing"

	"gpm/internal/core"
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
func TestSweepEqualsProbeAcrossOraclesAndWorkers(t *testing.T) {
	limits := []struct {
		name        string
		budget, cap int64
	}{
		{"rule", -1, -1},
		{"all-fallback", 0, -1},
		{"all-sweep", math.MaxInt64, -1},
		{"no-witness-matrix", -1, 0},
	}
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
				for _, lim := range limits {
					restore := core.SweepLimitsForTest(lim.budget, lim.cap)
					for _, workers := range []int{1, 2, 4, 8} {
						var got core.Stats
						res, err := core.MatchOpts(ctx, p, w.G, o, &got, core.MatchOptions{Frozen: f, Workers: workers})
						if err != nil {
							t.Fatalf("seed %d pattern %d %s %s workers %d: %v", seed, pi, kind, lim.name, workers, err)
						}
						if res.OK() != ref.OK() || !RelationsEqual(res.Relation(), ref.Relation()) {
							t.Errorf("seed %d pattern %d %s %s workers %d: sweep diverges from probes: %s",
								seed, pi, kind, lim.name, workers, DiffRelations(res.Relation(), ref.Relation()))
						}
						if got.InitialPairs != want.InitialPairs || got.Removals != want.Removals {
							t.Errorf("seed %d pattern %d %s %s workers %d: pairs/removals %d/%d, probing run %d/%d",
								seed, pi, kind, lim.name, workers, got.InitialPairs, got.Removals, want.InitialPairs, want.Removals)
						}
					}
					restore()
				}
			}
		}
	}
}
