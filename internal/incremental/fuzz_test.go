package incremental

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/simulation"
	"gpm/internal/topo"
	"gpm/internal/value"
)

// decodeIncCase deterministically builds a small labeled graph, an
// all-bounds-one pattern, an update stream and a batch size from fuzz
// bytes: node and pattern-node counts, one label byte per node,
// alternating edge wiring, then the remaining bytes as update endpoints
// (each pair toggles the edge's presence, so every decoded stream is
// valid). Every byte string decodes to a valid case, so the fuzzer
// explores the maintenance semantics, not input rejection. batchSize >
// 1 exercises the mixed-batch interplay of the delta phases — a counter
// can hit zero on a deletion and recover via an insertion within one
// batch.
func decodeIncCase(data []byte) (*pattern.Pattern, *graph.Graph, []Update, int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next())%8  // 2..9 data nodes
	np := 1 + int(next())%3 // 1..3 pattern nodes
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.SetAttr(i, graph.Attrs{"label": value.Str(fmt.Sprintf("L%d", next()%4))})
	}
	p := pattern.New()
	for i := 0; i < np; i++ {
		p.AddNode(pattern.Label(fmt.Sprintf("L%d", next()%4)))
	}
	wired := 0
	for len(data) > 8 && wired < 3*n {
		a, b := int(next()), int(next())
		wired++
		if wired%3 == 0 {
			from, to := a%np, b%np
			if from != to && !p.HasEdge(from, to) {
				p.MustAddEdge(from, to, 1)
			}
		} else if a%n != b%n {
			g.AddEdge(a%n, b%n)
		}
	}
	if p.EdgeCount() == 0 && np > 1 {
		p.MustAddEdge(0, 1, 1)
	}
	batchSize := 1 + int(next())%4
	// The tail is the update stream: each byte pair toggles one edge,
	// tracked against the evolving graph so the stream stays valid (an
	// edge toggled twice inside one batch is a valid delete-then-insert
	// or insert-then-delete sequence).
	present := map[[2]int]bool{}
	g.Edges(func(u, v int) { present[[2]int{u, v}] = true })
	var ups []Update
	for len(data) >= 2 && len(ups) < 24 {
		u, v := int(next())%n, int(next())%n
		if u == v {
			continue
		}
		key := [2]int{u, v}
		if present[key] {
			ups = append(ups, Del(u, v))
		} else {
			ups = append(ups, Ins(u, v))
		}
		present[key] = !present[key]
	}
	return p, g, ups, batchSize
}

// invert reverses an update stream: applying ups then invert(ups)
// returns the graph to its starting state.
func invert(ups []Update) []Update {
	inv := make([]Update, len(ups))
	for i, up := range ups {
		inv[len(ups)-1-i] = Update{Insert: !up.Insert, U: up.U, V: up.V}
	}
	return inv
}

// FuzzIncDualSim drives the incremental dual-simulation (and plain-
// simulation and strong-simulation) watchers with random graph, pattern
// and update streams. After every update the maintained relations must
// be bit-identical to a full recompute, verified by the independent
// checkers, and respect strong ⊆ dual ⊆ sim; applying the inverse
// stream must return every relation to its initial state, and re-
// applying an empty batch must change nothing (idempotence).
func FuzzIncDualSim(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0})
	f.Add([]byte{5, 2, 0, 1, 2, 3, 0, 1, 1, 2, 2, 0, 0, 1, 1, 0, 2, 1, 3, 4, 0, 2, 4, 1})
	f.Add([]byte{7, 2, 1, 1, 2, 2, 3, 3, 0, 4, 1, 5, 2, 0, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 0, 3, 3, 0, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, g, ups, batchSize := decodeIncCase(data)
		ctx := context.Background()

		dual, err := NewSimMatcher(p, g, false)
		if err != nil {
			t.Fatalf("NewSimMatcher(dual): %v", err)
		}
		sim, err := NewSimMatcher(p, g, true)
		if err != nil {
			t.Fatalf("NewSimMatcher(sim): %v", err)
		}
		strong, err := NewStrongMatcher(p, g, 2)
		if err != nil {
			t.Fatalf("NewStrongMatcher: %v", err)
		}
		initial := [3][][]int32{dual.Relation(), sim.Relation(), strong.Relation()}

		step := func(batch []Update) {
			// One maintainer applies the structural change; the others
			// absorb it the way engine watchers do.
			if _, err := dual.Apply(batch); err != nil {
				t.Fatalf("dual.Apply(%v): %v", batch, err)
			}
			sim.ApplyPrecomputed(nil, batch)
			strong.ApplyPrecomputed(nil, batch)

			fz := g.Freeze()
			wantDual, _, err := topo.DualSim(ctx, p, fz, topo.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gotDual := dual.Relation()
			if !reflect.DeepEqual(gotDual, wantDual) {
				t.Fatalf("dual watcher ≠ recompute after %v\ngot:  %v\nwant: %v", batch, gotDual, wantDual)
			}
			if !topo.IsDualSim(p, fz, gotDual) {
				t.Fatalf("dual watcher relation rejected by IsDualSim: %v", gotDual)
			}
			wantSim, _, err := simulation.RunFrozen(ctx, p, fz)
			if err != nil {
				t.Fatal(err)
			}
			gotSim := sim.Relation()
			if !reflect.DeepEqual(gotSim, wantSim) {
				t.Fatalf("sim watcher ≠ recompute after %v\ngot:  %v\nwant: %v", batch, gotSim, wantSim)
			}
			if !simulation.IsSimulation(p, fz, gotSim) {
				t.Fatalf("sim watcher relation rejected by IsSimulation: %v", gotSim)
			}
			wantStrong, _, err := topo.StrongSim(ctx, p, fz, topo.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gotStrong := strong.Relation()
			if !reflect.DeepEqual(gotStrong, wantStrong) {
				t.Fatalf("strong watcher ≠ recompute after %v\ngot:  %v\nwant: %v", batch, gotStrong, wantStrong)
			}
			if !contained(gotStrong, gotDual) || !contained(gotDual, gotSim) {
				t.Fatalf("lattice violated after %v: strong %v dual %v sim %v", batch, gotStrong, gotDual, gotSim)
			}
			if err := dual.CheckInvariants(); err != nil {
				t.Fatalf("dual invariants after %v: %v", batch, err)
			}
			if err := strong.CheckInvariants(); err != nil {
				t.Fatalf("strong invariants after %v: %v", batch, err)
			}
		}

		// The stream forward in decoded-size batches, then the inverse
		// stream back the same way (the inverse of a valid sequential
		// stream is valid sequentially, so any chunking of it is too).
		for off := 0; off < len(ups); off += batchSize {
			end := off + batchSize
			if end > len(ups) {
				end = len(ups)
			}
			step(ups[off:end])
		}
		inv := invert(ups)
		for off := 0; off < len(inv); off += batchSize {
			end := off + batchSize
			if end > len(inv) {
				end = len(inv)
			}
			step(inv[off:end])
		}
		final := [3][][]int32{dual.Relation(), sim.Relation(), strong.Relation()}
		if !reflect.DeepEqual(initial, final) {
			t.Fatalf("inverse stream did not restore the initial relations\ninitial: %v\nfinal:   %v", initial, final)
		}

		// Idempotence: an empty batch (and a no-op batch) changes nothing.
		if d, err := dual.Apply(nil); err != nil || d.Aff2 != 0 {
			t.Fatalf("empty batch changed the relation: %+v err=%v", d, err)
		}
		if len(ups) > 0 {
			up := ups[0]
			noop := []Update{up, {Insert: !up.Insert, U: up.U, V: up.V}}
			if d, err := dual.Apply(noop); err != nil || len(d.Added) != 0 || len(d.Removed) != 0 {
				t.Fatalf("no-op batch %v changed the relation: %+v err=%v", noop, d, err)
			}
		}
		if !reflect.DeepEqual(dual.Relation(), final[0]) {
			t.Fatal("idempotent re-apply mutated the dual relation")
		}
	})
}

// contained reports rel ⊆ sup, row by row (both sorted).
func contained(rel, sup [][]int32) bool {
	if len(rel) != len(sup) {
		return false
	}
	for u := range rel {
		j := 0
		for _, x := range rel[u] {
			for j < len(sup[u]) && sup[u][j] < x {
				j++
			}
			if j >= len(sup[u]) || sup[u][j] != x {
				return false
			}
		}
	}
	return true
}
