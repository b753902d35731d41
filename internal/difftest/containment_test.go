package difftest

import (
	"context"
	"fmt"
	"testing"

	"gpm"
	"gpm/internal/pattern"
)

// stripPreds returns p with every node predicate removed: a pattern that
// contains p under both the child and the dual mode (identical edges,
// weaker predicates).
func stripPreds(p *gpm.Pattern) *gpm.Pattern {
	q := p.Clone()
	for u := 0; u < q.N(); u++ {
		q.SetPred(u, nil)
	}
	return q
}

// The containment transfer law the result cache's seeding relies on:
// Contains(p', p) implies relation(p) ⊆ relation(p') on every graph, for
// match and plain simulation via child witnesses and for dual simulation
// via child+parent witnesses — checked on random workloads against a
// predicate-stripped containing pattern, at worker counts 1/2/4/8, with
// each relation pinned bit-identical across worker counts by checksum.
func TestContainmentTransfersToRelations(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= workloads; seed++ {
		w := NewWorkload(seed, Config{K: 1})
		for pi, p := range w.Patterns {
			loose := stripPreds(p)
			if !pattern.Contains(loose, p) {
				t.Fatalf("seed %d pattern %d: predicate-stripped pattern does not contain the original", seed, pi)
			}
			if _, ok := pattern.Containment(loose, p, pattern.ContainDual); !ok {
				t.Fatalf("seed %d pattern %d: dual-mode containment rejected the stripped pattern", seed, pi)
			}
			// rels[semantics][0] = relation of p, [1] = relation of loose;
			// recomputed per worker count and pinned by checksum.
			var want map[string][2]uint64
			for _, workers := range latticeWorkers {
				eng := gpm.NewEngine(w.G, gpm.WithWorkers(workers))
				sums := make(map[string][2]uint64)
				for sem, run := range map[string]func(*gpm.Pattern) ([][]int32, error){
					"match": func(q *gpm.Pattern) ([][]int32, error) {
						r, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: q})
						if err != nil {
							return nil, err
						}
						return r.Relation, nil
					},
					"sim": func(q *gpm.Pattern) ([][]int32, error) {
						r, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: q})
						if err != nil {
							return nil, err
						}
						return r.Relation, nil
					},
					"dual": func(q *gpm.Pattern) ([][]int32, error) {
						r, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: q})
						if err != nil {
							return nil, err
						}
						return r.Relation, nil
					},
				} {
					strictRel, err := run(p)
					if err != nil {
						t.Fatalf("seed %d pattern %d %s (workers %d): %v", seed, pi, sem, workers, err)
					}
					looseRel, err := run(loose)
					if err != nil {
						t.Fatalf("seed %d pattern %d %s loose (workers %d): %v", seed, pi, sem, workers, err)
					}
					if !Contained(strictRel, looseRel) {
						t.Errorf("seed %d pattern %d %s (workers %d): relation(p) ⊄ relation(p') despite Contains(p', p)\n%s",
							seed, pi, sem, workers, DiffRelations(strictRel, looseRel))
					}
					sums[sem] = [2]uint64{Checksum(strictRel), Checksum(looseRel)}
				}
				if want == nil {
					want = sums
				} else if fmt.Sprint(sums) != fmt.Sprint(want) {
					t.Errorf("seed %d pattern %d: relations diverged at %d workers: %v vs %v",
						seed, pi, workers, sums, want)
				}
			}
		}
	}
}
