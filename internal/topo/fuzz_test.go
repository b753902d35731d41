package topo

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/simulation"
	"gpm/internal/value"
)

// decodeCase deterministically builds a small labeled graph and an
// all-bounds-one pattern from fuzz bytes: one byte of node count, one
// label byte per node, then alternating (from, to) pairs wired into the
// graph and the pattern. Every byte string decodes to a valid case, so
// the fuzzer explores semantics, not parser rejections.
func decodeCase(data []byte) (*pattern.Pattern, *graph.Frozen) {
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
	for i := 0; len(data) >= 2; i++ {
		a, b := int(next()), int(next())
		if i%3 == 2 {
			from, to := a%np, b%np
			if from != to && !p.HasEdge(from, to) {
				p.MustAddEdge(from, to, 1)
			}
		} else {
			if a%n != b%n {
				g.AddEdge(a%n, b%n)
			}
		}
	}
	if p.EdgeCount() == 0 && np > 1 {
		p.MustAddEdge(0, 1, 1)
	}
	return p, g.Freeze()
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

// FuzzDualSim drives DualSim (and StrongSim, which is built on it) with
// random small graph/pattern pairs. Any input must terminate and uphold
// the semantics invariants: the dual relation verifies against the
// independent IsDualSim checker, equals the naive rescan's maximum, is
// contained in plain simulation, contains strong simulation, and is
// idempotent (a second run over the same frozen snapshot returns the
// identical relation).
func FuzzDualSim(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 1, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{5, 2, 0, 1, 2, 3, 0, 1, 1, 2, 2, 0, 0, 1, 1, 0, 2, 1})
	f.Add([]byte{7, 2, 1, 1, 2, 2, 3, 3, 0, 4, 1, 5, 2, 0, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, fz := decodeCase(data)
		ctx := context.Background()

		dual, dualOK, err := DualSim(ctx, p, fz, Options{})
		if err != nil {
			t.Fatalf("DualSim: %v", err)
		}
		if !IsDualSim(p, fz, dual) {
			t.Fatalf("DualSim output rejected by IsDualSim\nrel: %v\npattern:\n%s", dual, p)
		}
		if want, wantOK := NaiveDualSim(p, fz, nil); dualOK != wantOK || !reflect.DeepEqual(dual, want) {
			t.Fatalf("DualSim %v is not the naive rescan's maximum %v\npattern:\n%s", dual, want, p)
		}
		sim, _, err := simulation.RunFrozen(ctx, p, fz)
		if err != nil {
			t.Fatalf("simulation: %v", err)
		}
		if !contained(dual, sim) {
			t.Fatalf("dual ⊄ plain simulation\ndual: %v\nsim:  %v\npattern:\n%s", dual, sim, p)
		}
		again, againOK, err := DualSim(ctx, p, fz, Options{})
		if err != nil {
			t.Fatalf("DualSim (second run): %v", err)
		}
		if dualOK != againOK || !reflect.DeepEqual(dual, again) {
			t.Fatalf("DualSim is not idempotent: %v vs %v", dual, again)
		}

		strong, _, err := StrongSim(ctx, p, fz, Options{})
		if err != nil {
			t.Fatalf("StrongSim: %v", err)
		}
		if !contained(strong, dual) {
			t.Fatalf("strong ⊄ dual\nstrong: %v\ndual:   %v\npattern:\n%s", strong, dual, p)
		}
	})
}
