package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/simulation"
	"gpm/internal/topo"
	"gpm/internal/value"
)

// randomCase builds a small random labeled graph and an all-bounds-one
// pattern, deterministic in seed. Kept local (instead of using
// internal/generator) because generator imports this package.
func randomCase(seed int64, n, edges, np, pe int) (*pattern.Pattern, *graph.Graph, *rand.Rand) {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	labels := 4
	for i := 0; i < n; i++ {
		g.SetAttr(i, graph.Attrs{"label": value.Str(fmt.Sprintf("L%d", r.Intn(labels)))})
	}
	for g.M() < edges {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	p := pattern.New()
	for i := 0; i < np; i++ {
		p.AddNode(pattern.Label(fmt.Sprintf("L%d", r.Intn(labels))))
	}
	for i := 0; i < pe; i++ {
		from, to := r.Intn(np), r.Intn(np)
		if from != to && !p.HasEdge(from, to) {
			p.MustAddEdge(from, to, 1)
		}
	}
	if p.EdgeCount() == 0 && np > 1 {
		p.MustAddEdge(0, 1, 1)
	}
	return p, g, r
}

func relationsEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				return false
			}
		}
	}
	return true
}

// The incremental sim/dual relations must stay bit-identical to a full
// recompute after every random update batch, and the counter invariants
// must hold.
func TestSimMatcherMatchesRecompute(t *testing.T) {
	ctx := context.Background()
	for _, childOnly := range []bool{true, false} {
		mode := "dual"
		if childOnly {
			mode = "sim"
		}
		t.Run(mode, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				p, g, r := randomCase(seed, 30, 70, 3, 4)
				m, err := NewSimMatcher(p, g, childOnly)
				if err != nil {
					t.Fatalf("seed %d: NewSimMatcher: %v", seed, err)
				}
				for batch := 0; batch < 8; batch++ {
					ups := randomBatch(r, g, 1+r.Intn(5))
					if _, err := m.Apply(ups); err != nil {
						t.Fatalf("seed %d batch %d: Apply: %v", seed, batch, err)
					}
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("seed %d batch %d: invariants: %v", seed, batch, err)
					}
					var want [][]int32
					if childOnly {
						want, _, err = simulation.RunFrozen(ctx, p, g.Freeze())
					} else {
						want, _, err = topo.DualSim(ctx, p, g.Freeze(), topo.Options{})
					}
					if err != nil {
						t.Fatalf("seed %d batch %d: recompute: %v", seed, batch, err)
					}
					if got := m.Relation(); !relationsEqual(got, want) {
						t.Fatalf("seed %d batch %d (%s): incremental diverged\ngot:  %v\nwant: %v\nupdates: %v",
							seed, batch, mode, got, want, ups)
					}
				}
			}
		})
	}
}

// Forcing the insertion-closure cap to 1 makes every insertion take the
// rebuild fallback; the relation must stay identical and the delta must
// flag the recompute.
func TestSimMatcherFallback(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		p, g, r := randomCase(seed, 25, 60, 3, 4)
		m, err := NewSimMatcher(p, g, false)
		if err != nil {
			t.Fatal(err)
		}
		m.maxAffected = 1
		sawRecompute := false
		for batch := 0; batch < 8; batch++ {
			ups := randomBatch(r, g, 2)
			delta, err := m.Apply(ups)
			if err != nil {
				t.Fatal(err)
			}
			sawRecompute = sawRecompute || delta.Recomputed
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d batch %d: invariants after fallback: %v", seed, batch, err)
			}
			want, _, err := topo.DualSim(ctx, p, g.Freeze(), topo.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Relation(); !relationsEqual(got, want) {
				t.Fatalf("seed %d batch %d: fallback diverged\ngot:  %v\nwant: %v", seed, batch, got, want)
			}
		}
		_ = sawRecompute // some seeds may never grow the closure past 1
	}
}

// The incremental Delta must report exactly the net membership changes.
func TestSimMatcherDelta(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p, g, r := randomCase(seed, 25, 60, 3, 4)
		m, err := NewSimMatcher(p, g, false)
		if err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 6; batch++ {
			before := m.Relation()
			delta, err := m.Apply(randomBatch(r, g, 1+r.Intn(4)))
			if err != nil {
				t.Fatal(err)
			}
			member := map[MatchPair]bool{}
			for u, row := range before {
				for _, x := range row {
					member[MatchPair{int32(u), x}] = true
				}
			}
			for _, pr := range delta.Removed {
				if !member[pr] {
					t.Fatalf("seed %d batch %d: removed pair %v was not a member", seed, batch, pr)
				}
				delete(member, pr)
			}
			for _, pr := range delta.Added {
				if member[pr] {
					t.Fatalf("seed %d batch %d: added pair %v was already a member", seed, batch, pr)
				}
				member[pr] = true
			}
			after := map[MatchPair]bool{}
			for u, row := range m.Relation() {
				for _, x := range row {
					after[MatchPair{int32(u), x}] = true
				}
			}
			if len(after) != len(member) {
				t.Fatalf("seed %d batch %d: delta does not reconcile: %d vs %d pairs", seed, batch, len(member), len(after))
			}
			for pr := range after {
				if !member[pr] {
					t.Fatalf("seed %d batch %d: pair %v missing from reconciled delta", seed, batch, pr)
				}
			}
		}
	}
}

// The incremental strong relation must stay bit-identical to a full
// topo.StrongSim recompute after every batch, at several worker counts.
func TestStrongMatcherMatchesRecompute(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				p, g, r := randomCase(seed, 30, 70, 3, 4)
				m, err := NewStrongMatcher(p, g, workers)
				if err != nil {
					t.Fatalf("seed %d: NewStrongMatcher: %v", seed, err)
				}
				for batch := 0; batch < 6; batch++ {
					ups := randomBatch(r, g, 1+r.Intn(4))
					if _, err := m.Apply(ups); err != nil {
						t.Fatalf("seed %d batch %d: Apply: %v", seed, batch, err)
					}
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("seed %d batch %d: invariants: %v", seed, batch, err)
					}
					want, _, err := topo.StrongSim(ctx, p, g.Freeze(), topo.Options{})
					if err != nil {
						t.Fatalf("seed %d batch %d: StrongSim: %v", seed, batch, err)
					}
					if got := m.Relation(); !relationsEqual(got, want) {
						t.Fatalf("seed %d batch %d: incremental strong diverged\ngot:  %v\nwant: %v\nupdates: %v",
							seed, batch, got, want, ups)
					}
				}
			}
		})
	}
}

// Invalid update batches must leave both graph and relation untouched.
func TestSimMatcherInvalidBatch(t *testing.T) {
	p, g, _ := randomCase(3, 15, 30, 2, 2)
	m, err := NewSimMatcher(p, g, false)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Relation()
	edges := g.EdgeList()
	e := edges[0]
	// Second delete of the same (now missing) edge fails; the first must
	// be rolled back.
	if _, err := m.Apply([]Update{Del(int(e[0]), int(e[1])), Del(int(e[0]), int(e[1]))}); err == nil {
		t.Fatal("Apply accepted a double-delete batch")
	}
	if !g.HasEdge(int(e[0]), int(e[1])) {
		t.Fatal("failed batch mutated the graph")
	}
	if !relationsEqual(m.Relation(), before) {
		t.Fatal("failed batch mutated the relation")
	}
}

// Pattern restrictions: hop bounds and colored edges are rejected.
func TestSimMatcherRejectsUnsupportedPatterns(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)

	bounded := pattern.New()
	bounded.AddNode(pattern.Predicate{})
	bounded.AddNode(pattern.Predicate{})
	bounded.MustAddEdge(0, 1, 2)
	if _, err := NewSimMatcher(bounded, g, false); err == nil {
		t.Error("NewSimMatcher accepted a bound-2 pattern")
	}
	if _, err := NewStrongMatcher(bounded, g, 1); err == nil {
		t.Error("NewStrongMatcher accepted a bound-2 pattern")
	}

	colored := pattern.New()
	colored.AddNode(pattern.Predicate{})
	colored.AddNode(pattern.Predicate{})
	if _, err := colored.AddColoredEdge(0, 1, 1, "red"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimMatcher(colored, g, false); err == nil {
		t.Error("NewSimMatcher accepted a colored pattern")
	}
}

func TestNetEffects(t *testing.T) {
	cases := []struct {
		name     string
		in       []Update
		wantIns  int
		wantDels int
	}{
		{"empty", nil, 0, 0},
		{"plain insert", []Update{Ins(0, 1)}, 1, 0},
		{"plain delete", []Update{Del(0, 1)}, 0, 1},
		{"insert then delete", []Update{Ins(0, 1), Del(0, 1)}, 0, 0},
		{"delete then insert", []Update{Del(0, 1), Ins(0, 1)}, 1, 1},
		{"insert delete insert", []Update{Ins(0, 1), Del(0, 1), Ins(0, 1)}, 1, 0},
		{"delete insert delete", []Update{Del(0, 1), Ins(0, 1), Del(0, 1)}, 0, 1},
		{"mixed edges", []Update{Ins(0, 1), Del(2, 3), Del(0, 1)}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins, dels := NetEffects(tc.in)
			if len(ins) != tc.wantIns || len(dels) != tc.wantDels {
				t.Errorf("NetEffects(%v) = %v ins, %v dels; want %d, %d", tc.in, ins, dels, tc.wantIns, tc.wantDels)
			}
		})
	}
}
