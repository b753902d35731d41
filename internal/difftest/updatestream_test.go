package difftest

import (
	"context"
	"testing"

	"gpm"
)

// streamWorkers are the worker counts every incremental relation is
// pinned at; watcher relations must be bit-identical (equal checksums)
// across all of them after every batch.
var streamWorkers = []int{1, 2, 4, 8}

// streamState is one engine (at one worker count) with its three
// semantics watchers, bound to its own clone of the workload graph so
// the same update stream can be replayed against every worker count.
type streamState struct {
	eng    *gpm.Engine
	sim    *gpm.Watcher
	dual   *gpm.Watcher
	strong *gpm.Watcher
}

func newStreamState(t *testing.T, g *gpm.Graph, p *gpm.Pattern, workers int) *streamState {
	t.Helper()
	s := &streamState{eng: gpm.NewEngine(g, gpm.WithWorkers(workers))}
	var err error
	if s.sim, err = s.eng.WatchSim(p); err != nil {
		t.Fatalf("WatchSim: %v", err)
	}
	if s.dual, err = s.eng.WatchDual(p); err != nil {
		t.Fatalf("WatchDual: %v", err)
	}
	if s.strong, err = s.eng.WatchStrong(p); err != nil {
		t.Fatalf("WatchStrong: %v", err)
	}
	return s
}

// TestIncrementalUpdateStream is the metamorphic update-stream harness:
// random insert/delete batches over generator graphs, asserting after
// EVERY batch that
//
//   - each incremental watcher relation is bit-identical to a full
//     recompute of its semantics on the post-update graph,
//   - the relations are checksum-identical across worker counts 1/2/4/8
//     (the strong watcher re-evaluates affected balls on the worker
//     pool; the merge must not depend on scheduling), and
//   - the containment lattice subiso ⊆ strong ⊆ dual ⊆ sim still holds.
func TestIncrementalUpdateStream(t *testing.T) {
	ctx := context.Background()
	isoOpts := gpm.IsoOptions{MaxEmbeddings: 100, MaxSteps: 100_000}
	const seeds = 4
	const batches = 5
	for seed := int64(1); seed <= seeds; seed++ {
		w := NewWorkload(seed, Config{Nodes: 50, Edges: 130, K: 1, Patterns: 2, IsoBias: seed%2 == 0})
		for pi, p := range w.Patterns {
			states := make([]*streamState, len(streamWorkers))
			for i, workers := range streamWorkers {
				states[i] = newStreamState(t, w.G.Clone(), p, workers)
			}
			for batch := 0; batch < batches; batch++ {
				// Generate the batch against the first clone's current
				// state; all clones evolve identically, so it is valid
				// for every engine.
				ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{
					Insertions: 2 + int(seed)%3,
					Deletions:  2,
					Seed:       seed*1000 + int64(pi)*100 + int64(batch),
				}, states[0].eng.Graph())
				var pin [3]uint64 // sim, dual, strong checksums of workers[0]
				for i, s := range states {
					if _, err := s.eng.Update(ups...); err != nil {
						t.Fatalf("seed %d pattern %d batch %d workers %d: Update: %v",
							seed, pi, batch, streamWorkers[i], err)
					}
					simRel := s.sim.Relation()
					dualRel := s.dual.Relation()
					strongRel := s.strong.Relation()

					// Incremental ≡ recompute, per semantics.
					simRe, err := s.eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: p})
					if err != nil {
						t.Fatal(err)
					}
					dualRe, err := s.eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
					if err != nil {
						t.Fatal(err)
					}
					strongRe, err := s.eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
					if err != nil {
						t.Fatal(err)
					}
					if !RelationsEqual(simRel, simRe.Relation) {
						t.Errorf("seed %d pattern %d batch %d workers %d: sim watcher ≠ recompute: %s",
							seed, pi, batch, streamWorkers[i], DiffRelations(simRel, simRe.Relation))
					}
					if !RelationsEqual(dualRel, dualRe.Relation) {
						t.Errorf("seed %d pattern %d batch %d workers %d: dual watcher ≠ recompute: %s",
							seed, pi, batch, streamWorkers[i], DiffRelations(dualRel, dualRe.Relation))
					}
					if !RelationsEqual(strongRel, strongRe.Relation) {
						t.Errorf("seed %d pattern %d batch %d workers %d: strong watcher ≠ recompute: %s",
							seed, pi, batch, streamWorkers[i], DiffRelations(strongRel, strongRe.Relation))
					}

					// Checksum-pinned across worker counts.
					sums := [3]uint64{Checksum(simRel), Checksum(dualRel), Checksum(strongRel)}
					if i == 0 {
						pin = sums
					} else if sums != pin {
						t.Errorf("seed %d pattern %d batch %d: checksums diverge at %d workers: %x vs %x",
							seed, pi, batch, streamWorkers[i], sums, pin)
					}

					// Containment lattice after every batch (the subiso
					// link only on the first engine; enumeration is the
					// expensive leg and identical graphs enumerate
					// identically).
					if i == 0 {
						enum, err := s.eng.Enumerate(ctx, p, isoOpts)
						if err != nil {
							t.Fatal(err)
						}
						iso := enum.PairsPerNode(p.N())
						if !Contained(iso, strongRel) {
							t.Errorf("seed %d pattern %d batch %d: subiso pairs ⊄ strong", seed, pi, batch)
						}
					}
					if !Contained(strongRel, dualRel) {
						t.Errorf("seed %d pattern %d batch %d workers %d: strong ⊄ dual",
							seed, pi, batch, streamWorkers[i])
					}
					if !Contained(dualRel, simRel) {
						t.Errorf("seed %d pattern %d batch %d workers %d: dual ⊄ sim",
							seed, pi, batch, streamWorkers[i])
					}
				}
			}
			for _, s := range states {
				s.sim.Close()
				s.dual.Close()
				s.strong.Close()
			}
		}
	}
}

// The bounded watcher (IncMatch) and the sim watcher must agree on
// all-bounds-one patterns after every batch: plain simulation is bounded
// simulation with every bound fixed to 1, and both incremental paths
// must preserve the equality the batch algorithms have.
func TestIncrementalSimEqualsBoundedAtOne(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := NewWorkload(seed, Config{Nodes: 40, Edges: 100, K: 1, Patterns: 2})
		for pi, p := range w.Patterns {
			eng := gpm.NewEngine(w.G.Clone())
			bounded, err := eng.Watch(p)
			if err != nil {
				t.Fatalf("Watch: %v", err)
			}
			sim, err := eng.WatchSim(p)
			if err != nil {
				t.Fatalf("WatchSim: %v", err)
			}
			for batch := 0; batch < 4; batch++ {
				ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{
					Insertions: 2, Deletions: 2, Seed: seed*71 + int64(pi)*13 + int64(batch),
				}, eng.Graph())
				if _, err := eng.Update(ups...); err != nil {
					t.Fatal(err)
				}
				if !RelationsEqual(bounded.Relation(), sim.Relation()) {
					t.Errorf("seed %d pattern %d batch %d: bounded@1 watcher ≠ sim watcher: %s",
						seed, pi, batch, DiffRelations(bounded.Relation(), sim.Relation()))
				}
			}
			bounded.Close()
			sim.Close()
		}
	}
}
