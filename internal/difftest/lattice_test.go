package difftest

import (
	"context"
	"testing"

	"gpm"
	"gpm/internal/simulation"
)

// latticeWorkers are the worker counts every lattice property is pinned
// at; relations must be bit-identical across all of them.
var latticeWorkers = []int{1, 2, 4, 8}

// The four-level semantics lattice (Ma et al., VLDB 2012): on
// all-bounds-one patterns, subgraph-isomorphism pairs are contained in
// strong simulation, strong in dual, dual in plain simulation, and
// plain simulation in bounded simulation at any k >= 1 — every link
// checked as relation containment on random workloads, with dual and
// strong recomputed at worker counts 1/2/4/8 and pinned bit-identical
// by relation checksum.
func TestSemanticsLattice(t *testing.T) {
	isoOpts := gpm.IsoOptions{MaxEmbeddings: 200, MaxSteps: 200_000}
	ctx := context.Background()
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{K: 1, IsoBias: seed%2 == 0})
		eng := gpm.NewEngine(w.G, gpm.WithWorkers(1))
		for pi, p := range w.Patterns {
			enum, err := eng.Enumerate(ctx, p, isoOpts)
			if err != nil {
				t.Fatalf("seed %d pattern %d: Enumerate: %v", seed, pi, err)
			}
			iso := enum.PairsPerNode(p.N())
			strong, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: strong: %v", seed, pi, err)
			}
			dual, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: dual: %v", seed, pi, err)
			}
			sim, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: sim: %v", seed, pi, err)
			}
			const k = 3
			bounded, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: RaiseBounds(p, k)})
			if err != nil {
				t.Fatalf("seed %d pattern %d: Match(k=%d): %v", seed, pi, k, err)
			}

			strongRel, dualRel := strong.Relation, dual.Relation
			if !Contained(iso, strongRel) {
				t.Errorf("seed %d pattern %d: subiso pairs ⊄ strong\niso:    %v\nstrong: %v",
					seed, pi, iso, strongRel)
			}
			if !Contained(strongRel, dualRel) {
				t.Errorf("seed %d pattern %d: strong ⊄ dual\nstrong: %v\ndual:   %v",
					seed, pi, strongRel, dualRel)
			}
			if !Contained(dualRel, sim.Relation) {
				t.Errorf("seed %d pattern %d: dual ⊄ simulate\ndual: %v\nsim:  %v",
					seed, pi, dualRel, sim.Relation)
			}
			if !Contained(sim.Relation, bounded.Relation) {
				t.Errorf("seed %d pattern %d: simulate ⊄ match(k=%d)\nsim:   %v\nmatch: %v",
					seed, pi, k, sim.Relation, bounded.Relation)
			}

			// Bit-identity across worker counts, as relation checksums.
			wantStrong, wantDual := Checksum(strongRel), Checksum(dualRel)
			for _, workers := range latticeWorkers[1:] {
				engW := gpm.NewEngine(w.G, gpm.WithWorkers(workers))
				s, err := engW.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
				if err != nil {
					t.Fatalf("seed %d pattern %d workers %d: strong: %v", seed, pi, workers, err)
				}
				if got := Checksum(s.Relation); got != wantStrong {
					t.Errorf("seed %d pattern %d: strong checksum at %d workers %016x != %016x: %s",
						seed, pi, workers, got, wantStrong, DiffRelations(s.Relation, strongRel))
				}
				d, err := engW.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
				if err != nil {
					t.Fatalf("seed %d pattern %d workers %d: dual: %v", seed, pi, workers, err)
				}
				if got := Checksum(d.Relation); got != wantDual {
					t.Errorf("seed %d pattern %d: dual checksum at %d workers %016x != %016x: %s",
						seed, pi, workers, got, wantDual, DiffRelations(d.Relation, dualRel))
				}
			}
		}
	}
}

// First collapse point: dual simulation with its parent constraints
// dropped is plain simulation, which in turn equals bounded simulation at
// k=1 (paper §2.2, remark 2) — the "dual ≡ bounded-sim@k=1 when
// restricted to child constraints" edge of the lattice. The engine runs
// all three on one kernel (child-only dual is its sim mode), so the
// collapse is pinned against simulation.RunNaive, a rescan that shares
// no code with it.
func TestDualChildOnlyEqualsSimulateAndMatchK1(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{K: 1})
		eng := gpm.NewEngine(w.G)
		f := w.G.Freeze()
		for pi, p := range w.Patterns {
			naive, naiveOK, err := simulation.RunNaive(p, f)
			if err != nil {
				t.Fatalf("seed %d pattern %d: RunNaive: %v", seed, pi, err)
			}
			sim, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: sim: %v", seed, pi, err)
			}
			if naiveOK != sim.OK || !RelationsEqual(naive, sim.Relation) {
				t.Errorf("seed %d pattern %d: child-only dual (sim) != naive plain simulation: %s",
					seed, pi, DiffRelations(sim.Relation, naive))
			}
			m, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: Match: %v", seed, pi, err)
			}
			if naiveOK != m.OK || !RelationsEqual(naive, m.Relation) {
				t.Errorf("seed %d pattern %d: naive plain simulation != bounded sim at k=1: %s",
					seed, pi, DiffRelations(m.Relation, naive))
			}
		}
	}
}

// Second collapse point: on out-tree patterns, strong simulation equals
// dual simulation — every dual pair extends to a tree homomorphism
// (climb parent witnesses to the root, descend child witnesses), whose
// image lies inside the ball around the root witness and is connected
// in the match graph, so locality filters nothing.
//
// (The issue's stronger claim "strong ≡ subiso on trees" does not hold
// under injective embedding semantics: a pattern A→B, A→C with equal
// child predicates strongly matches a data graph a→b where the single b
// must serve both B and C, but no injective embedding exists. The
// subiso direction that does hold — embedding pairs ⊆ strong — is
// asserted here and in TestSemanticsLattice.)
func TestStrongEqualsDualOnTreePatterns(t *testing.T) {
	ctx := context.Background()
	isoOpts := gpm.IsoOptions{MaxEmbeddings: 200, MaxSteps: 200_000}
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{K: 1, Patterns: 1})
		eng := gpm.NewEngine(w.G)
		for pn := 3; pn <= 5; pn++ {
			p := TreePattern(seed*977+int64(pn), w.G, pn)
			strong, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d: strong: %v", seed, err)
			}
			dual, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d: dual: %v", seed, err)
			}
			if strong.OK != dual.OK || !RelationsEqual(strong.Relation, dual.Relation) {
				t.Errorf("seed %d tree(%d): strong != dual on a tree pattern: %s\npattern:\n%s",
					seed, pn, DiffRelations(strong.Relation, dual.Relation), p)
			}
			enum, err := eng.Enumerate(ctx, p, isoOpts)
			if err != nil {
				t.Fatalf("seed %d: Enumerate: %v", seed, err)
			}
			if iso := enum.PairsPerNode(p.N()); !Contained(iso, strong.Relation) {
				t.Errorf("seed %d tree(%d): subiso pairs ⊄ strong", seed, pn)
			}
		}
	}
}

// Strong relations are result-graph-capable: the result graph of a strong
// match must contain exactly the matched nodes, and its edges must be
// single-hop (bounds are 1), each present in the data graph.
func TestTopoResultGraph(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		w := NewWorkload(seed, Config{K: 1})
		eng := gpm.NewEngine(w.G)
		for pi, p := range w.Patterns {
			strong, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: %v", seed, pi, err)
			}
			rg := eng.ResultGraph(p, strong)
			if !strong.OK {
				if len(rg.Nodes) != 0 {
					t.Errorf("seed %d pattern %d: failed match has %d result-graph nodes", seed, pi, len(rg.Nodes))
				}
				continue
			}
			want := map[int32]bool{}
			for u := 0; u < p.N(); u++ {
				for _, x := range strong.Relation[u] {
					want[x] = true
				}
			}
			if len(rg.Nodes) != len(want) {
				t.Errorf("seed %d pattern %d: result graph has %d nodes, match %d", seed, pi, len(rg.Nodes), len(want))
			}
			for _, e := range rg.Edges {
				if e.Dist != 1 {
					t.Errorf("seed %d pattern %d: result edge (%d,%d) dist %d on a bounds-one pattern",
						seed, pi, e.From, e.To, e.Dist)
				}
				if !w.G.HasEdge(int(e.From), int(e.To)) {
					t.Errorf("seed %d pattern %d: result edge (%d,%d) missing from data graph", seed, pi, e.From, e.To)
				}
			}
		}
	}
}
