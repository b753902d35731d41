package difftest

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gpm"
	"gpm/internal/core"
	"gpm/internal/generator"
	"gpm/internal/pll"
)

const workloads = 12 // random workloads per differential property

// Property (a): plain simulation is the all-bounds-one special case of
// bounded simulation (paper §2.2, remark 2), so on K=1 patterns
// match and sim relation queries must compute the same relation and the
// same OK verdict.
func TestMatchBoundsOneEqualsSimulate(t *testing.T) {
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{K: 1})
		eng := gpm.NewEngine(w.G)
		for pi, p := range w.Patterns {
			m, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: Match: %v", seed, pi, err)
			}
			s, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: sim: %v", seed, pi, err)
			}
			if m.OK != s.OK {
				t.Errorf("seed %d pattern %d: Match OK=%v, sim OK=%v", seed, pi, m.OK, s.OK)
			}
			if !RelationsEqual(m.Relation, s.Relation) {
				t.Errorf("seed %d pattern %d: relations differ: %s",
					seed, pi, DiffRelations(m.Relation, s.Relation))
			}
		}
	}
}

// Property (b): every VF2/Ullmann embedding maps each pattern edge to a
// data edge, so its pairs form a bounded simulation and must be contained
// in the unique maximum bounded-simulation relation.
func TestIsoEmbeddingsContainedInMatch(t *testing.T) {
	opts := gpm.IsoOptions{MaxEmbeddings: 200, MaxSteps: 200_000}
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{IsoBias: true, K: 2, PEdges: 4})
		eng := gpm.NewEngine(w.G)
		checked := 0
		for pi, p := range w.Patterns {
			m, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: Match: %v", seed, pi, err)
			}
			for _, algo := range []gpm.EnumAlgo{gpm.AlgoVF2, gpm.AlgoUllmann} {
				o := opts
				o.Algo = algo
				enum, err := eng.Enumerate(context.Background(), p, o)
				if err != nil {
					t.Fatalf("seed %d pattern %d algo %v: Enumerate: %v", seed, pi, algo, err)
				}
				for ei, emb := range enum.Embeddings {
					for u, x := range emb {
						checked++
						if !slices.Contains(m.Relation[u], x) {
							t.Errorf("seed %d pattern %d algo %v embedding %d: pair (%d,%d) not in max bounded-simulation relation",
								seed, pi, algo, ei, u, x)
						}
					}
				}
			}
		}
		if checked == 0 && seed == workloads {
			t.Log("warning: no embeddings produced by any workload; containment property unexercised")
		}
	}
}

// Property (c): the matrix, BFS and 2-hop oracles answer the same
// distance queries, so Match through any of them must produce identical
// results — and so must the auto engine, which owns no oracle.
func TestOraclesProduceIdenticalMatches(t *testing.T) {
	kinds := []gpm.OracleKind{gpm.OracleMatrix, gpm.OracleBFS, gpm.OracleTwoHop, gpm.OraclePLL, gpm.OracleAuto}
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{StarProb: 0.2})
		engines := make([]*gpm.Engine, len(kinds))
		for i, k := range kinds {
			engines[i] = gpm.NewEngine(w.G, gpm.WithOracle(k))
		}
		for pi, p := range w.Patterns {
			ref, err := engines[0].RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: matrix Match: %v", seed, pi, err)
			}
			for i, k := range kinds[1:] {
				got, err := engines[i+1].RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
				if err != nil {
					t.Fatalf("seed %d pattern %d: %v Match: %v", seed, pi, k, err)
				}
				if got.OK != ref.OK || !RelationsEqual(got.Relation, ref.Relation) {
					t.Errorf("seed %d pattern %d: %v oracle diverges from matrix: %s",
						seed, pi, k, DiffRelations(got.Relation, ref.Relation))
				}
			}
		}
	}
}

// Property (c'): below Match, the oracles must agree on the raw
// distance queries themselves — every (u, v, bound) triple on random
// graphs, bounded and unbounded. This pins the PLL labelling (including
// its saturated-distance overflow path) against the exact matrix, BFS
// and 2-hop answers directly, with no fixpoint in between to mask an
// off-by-one.
func TestOracleDistancesAgree(t *testing.T) {
	for seed := int64(1); seed <= workloads; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(30)
		g := gpm.NewGraph(n)
		colors := []string{"", "", "c", "d"} // oracles are colour-blind
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if c := colors[r.Intn(len(colors))]; c == "" {
				g.AddEdge(u, v)
			} else {
				g.AddColoredEdge(u, v, c)
			}
		}
		ref := core.BuildMatrixOracle(g)
		pllO, err := core.BuildPLLOracle(context.Background(), g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The parallel and bit-parallel build flavors must serve the
		// exact same distances through the oracle layer — including the
		// bit-parallel root candidates the probe scans fold in.
		fz := g.Freeze()
		parIdx, err := pll.Build(context.Background(), fz, pll.Options{Workers: 4})
		if err != nil {
			t.Fatalf("seed %d: parallel build: %v", seed, err)
		}
		bpIdx, err := pll.Build(context.Background(), fz, pll.Options{Workers: 2, BitParallel: 1})
		if err != nil {
			t.Fatalf("seed %d: bit-parallel build: %v", seed, err)
		}
		others := map[string]core.DistOracle{
			"bfs":          core.NewBFSOracle(g),
			"2hop":         core.BuildTwoHopOracle(g),
			"pll":          pllO,
			"pll-parallel": core.NewPLLOracleFrozen(fz, parIdx),
			"pll-bp":       core.NewPLLOracleFrozen(fz, bpIdx),
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for _, bound := range []int{-1, 0, 1, 2, 3, 7} {
					want := ref.NonemptyDistWithin(u, v, bound)
					for name, o := range others {
						if got := o.NonemptyDistWithin(u, v, bound); got != want {
							t.Fatalf("seed %d: %s(%d,%d,bound=%d) = %d, matrix says %d",
								seed, name, u, v, bound, got, want)
						}
					}
				}
			}
		}
	}
}

// Property (d): the greatest fixpoint is unique, and the parallel
// initialisation computes the same candidates and counters, so
// WithWorkers(N) must be bit-identical to WithWorkers(1) on every seed —
// for every oracle kind, since each parallelises differently.
func TestParallelEqualsSequential(t *testing.T) {
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{StarProb: 0.1})
		for _, kind := range []gpm.OracleKind{gpm.OracleMatrix, gpm.OracleBFS, gpm.OracleTwoHop, gpm.OraclePLL} {
			seq := gpm.NewEngine(w.G, gpm.WithOracle(kind), gpm.WithWorkers(1))
			for _, workers := range []int{2, 4, 8} {
				par := gpm.NewEngine(w.G, gpm.WithOracle(kind), gpm.WithWorkers(workers))
				for pi, p := range w.Patterns {
					want, err := seq.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
					if err != nil {
						t.Fatalf("seed %d pattern %d: sequential: %v", seed, pi, err)
					}
					got, err := par.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
					if err != nil {
						t.Fatalf("seed %d pattern %d: %d workers: %v", seed, pi, workers, err)
					}
					if got.OK != want.OK || !RelationsEqual(got.Relation, want.Relation) {
						t.Errorf("seed %d pattern %d oracle %v: %d workers diverge: %s",
							seed, pi, kind, workers, DiffRelations(got.Relation, want.Relation))
					}
					if Checksum(got.Relation) != Checksum(want.Relation) {
						t.Errorf("seed %d pattern %d oracle %v: %d-worker checksum diverges",
							seed, pi, kind, workers)
					}
				}
			}
		}
	}
}

// MatchBatch is the fan-out form of Match: its results must equal
// one-at-a-time Match on the same engine, position by position.
func TestMatchBatchEqualsSequentialMatch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		w := NewWorkload(seed, Config{Patterns: 8})
		eng := gpm.NewEngine(w.G, gpm.WithWorkers(4))
		batch, err := eng.MatchBatch(context.Background(), w.Patterns)
		if err != nil {
			t.Fatalf("seed %d: MatchBatch: %v", seed, err)
		}
		if len(batch) != len(w.Patterns) {
			t.Fatalf("seed %d: %d results for %d patterns", seed, len(batch), len(w.Patterns))
		}
		for pi, p := range w.Patterns {
			want, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d pattern %d: Match: %v", seed, pi, err)
			}
			if batch[pi].OK != want.OK || !RelationsEqual(batch[pi].Relation, want.Relation) {
				t.Errorf("seed %d pattern %d: batch result diverges: %s",
					seed, pi, DiffRelations(batch[pi].Relation, want.Relation))
			}
		}
	}
}

// Property test: after random update batches, the incrementally
// maintained match (Engine.Update driving IncMatch) must equal a
// from-scratch recompute by a fresh engine bound to the mutated graph.
func TestIncrementalMatchesRecompute(t *testing.T) {
	const rounds = 4
	for seed := int64(1); seed <= 8; seed++ {
		w := NewWorkload(seed, Config{Nodes: 50, Edges: 120, Patterns: 1, PNodes: 3, PEdges: 3, K: 2})
		p := w.Patterns[0]
		eng := gpm.NewEngine(w.G)
		watch, err := eng.Watch(p)
		if err != nil {
			t.Fatalf("seed %d: Watch: %v", seed, err)
		}
		for round := 0; round < rounds; round++ {
			ups := generator.Updates(generator.UpdatesConfig{
				Insertions: 4,
				Deletions:  4,
				Seed:       seed*131 + int64(round),
			}, w.G)
			if _, err := eng.Update(ups...); err != nil {
				t.Fatalf("seed %d round %d: Update: %v", seed, round, err)
			}
			fresh := gpm.NewEngine(w.G.Clone())
			want, err := fresh.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
			if err != nil {
				t.Fatalf("seed %d round %d: recompute: %v", seed, round, err)
			}
			if watch.OK() != want.OK || !RelationsEqual(watch.Relation(), want.Relation) {
				t.Errorf("seed %d round %d: incremental diverges from recompute: %s",
					seed, round, DiffRelations(watch.Relation(), want.Relation))
			}
		}
		watch.Close()
	}
}

// MatchBatch must stay correct and race-free while Update mutates the
// graph between batches (run under -race in CI): queries hold the read
// lock, updates the write lock, and every batch must see a consistent
// snapshot.
func TestMatchBatchUnderConcurrentUpdate(t *testing.T) {
	w := NewWorkload(99, Config{Nodes: 60, Edges: 150, Patterns: 6})
	eng := gpm.NewEngine(w.G, gpm.WithWorkers(4))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.MatchBatch(context.Background(), w.Patterns); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ups := generator.Updates(generator.UpdatesConfig{
				Insertions: 2, Deletions: 2, Seed: int64(1000 + i),
			}, w.G)
			if _, err := eng.Update(ups...); err != nil {
				errCh <- err
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("concurrent MatchBatch/Update: %v", err)
	default:
	}
}
