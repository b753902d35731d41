package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpm/internal/cancel"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

// sweepFixtures are the graphs the sweeper is checked on: every shape the
// nonempty-path convention is sensitive to.
func sweepFixtures() map[string]*graph.Graph {
	fx := map[string]*graph.Graph{}

	loops := graph.New(6) // self-loops beside a chain
	loops.AddEdge(0, 0)
	loops.AddEdge(0, 1)
	loops.AddEdge(1, 2)
	loops.AddEdge(2, 2)
	loops.AddEdge(3, 4)
	fx["self-loops"] = loops

	two := graph.New(7) // 2-cycles chained together, a tail hanging off
	two.AddEdge(0, 1)
	two.AddEdge(1, 0)
	two.AddEdge(1, 2)
	two.AddEdge(2, 3)
	two.AddEdge(3, 2)
	two.AddEdge(3, 4)
	two.AddEdge(5, 6)
	fx["two-cycles"] = two

	dag := graph.New(40) // layered DAG: no node reaches itself
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		for d := 0; d < 3; d++ {
			if j := i + 1 + r.Intn(6); j < 40 {
				dag.AddEdge(i, j)
			}
		}
	}
	fx["dag"] = dag

	parts := graph.New(30) // two components: a ring and a tree, no edge between
	for i := 0; i < 12; i++ {
		parts.AddEdge(i, (i+1)%12)
	}
	for i := 13; i < 30; i++ {
		parts.AddEdge(12+(i-13)/2, i)
	}
	fx["two-components"] = parts

	big := graph.New(150) // ≥ 130 sources: three blocks, the last partial; two colours
	r = rand.New(rand.NewSource(9))
	for i := 0; i < 420; i++ {
		big.AddColoredEdge(r.Intn(150), r.Intn(150), []string{"", "red", "blue"}[i%3])
	}
	fx["random-150"] = big
	return fx
}

func assertScratchZero(t *testing.T, sw *sweeper) {
	t.Helper()
	for i := range sw.s.Seen {
		if sw.s.Seen[i]|sw.s.Cur[i]|sw.s.Next[i] != 0 {
			t.Fatalf("scratch entry %d left nonzero: seen %x cur %x next %x", i, sw.s.Seen[i], sw.s.Cur[i], sw.s.Next[i])
		}
	}
}

// Bit i of the mask at w ⇔ the matrix oracle finds a nonempty path of at
// most k edges from source i to w — or from w to source i for a parent
// constraint — for every block, node and bound; for a coloured or ranged
// constraint, which no oracle answers, ⇔ walkLengths finds a witness.
func TestSweeperAgreesWithMatrixOracle(t *testing.T) {
	for name, g := range sweepFixtures() {
		f := g.Freeze()
		o := BuildMatrixOracle(g)
		poll := cancel.Every(context.Background(), 1)
		sw := newSweeper(f, &poll)
		srcs := make([]int32, g.N())
		for i := range srcs {
			srcs[i] = int32(i)
		}
		for _, c := range []constraint{
			{e: pattern.Edge{Bound: 1}}, {e: pattern.Edge{Bound: 2}}, {e: pattern.Edge{Bound: 3}},
			{e: pattern.Edge{Bound: 5}}, {e: pattern.Edge{Bound: pattern.Unbounded}},
			{e: pattern.Edge{Bound: 1}, parent: true}, {e: pattern.Edge{Bound: 3}, parent: true},
			{e: pattern.Edge{Bound: 3, Color: "red"}}, {e: pattern.Edge{Bound: pattern.Unbounded, Color: "blue"}, parent: true},
			{e: pattern.Edge{MinBound: 2, Bound: 4}}, {e: pattern.Edge{MinBound: 3, Bound: 9, Color: "red"}, parent: true},
		} {
			k := c.e.Bound
			var walks [][]int32 // walkLengths from every node, for a labelled c
			for x, w := 0, newWalker(f); labelled(c.e) && x < g.N(); x++ {
				w.walkLengths(x, c.e)
				walks = append(walks, slices.Clone(w.dist))
			}
			for lo := 0; lo < len(srcs); lo += sweepBlock {
				block := srcs[lo:min(lo+sweepBlock, len(srcs))]
				if err := sw.block(block, c); err != nil {
					t.Fatalf("%s k=%d parent=%v block %d: %v", name, k, c.parent, lo/sweepBlock, err)
				}
				for w := 0; w < g.N(); w++ {
					m := sw.mask(int32(w))
					for i, x := range block {
						from, to := int(x), w
						if c.parent {
							from, to = to, from
						}
						want := o.NonemptyDistWithin(from, to, k) >= 0
						if walks != nil {
							want = walks[from][to] >= 0
						}
						if got := m&(1<<uint(i)) != 0; got != want {
							t.Fatalf("%s %v parent=%v: source %d, node %d: sweep says %v, referee %v", name, c.e, c.parent, x, w, got, want)
						}
					}
					if m>>uint(len(block)) != 0 {
						t.Fatalf("%s k=%d: mask at %d has bits beyond the block: %x", name, k, w, m)
					}
				}
				sw.reset()
				assertScratchZero(t, sw)
			}
		}
		if sw.scans == 0 {
			t.Errorf("%s: no scans counted", name)
		}
		sw.close()
	}
}

func TestSweeperCancelled(t *testing.T) {
	g := sweepFixtures()["random-150"]
	f := g.Freeze()
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	poll := cancel.Every(ctx, cancelPollInterval) // far from its interval: only Now sees it
	sw := newSweeper(f, &poll)
	defer sw.close()
	for _, k := range []int{2, pattern.Unbounded} {
		if err := sw.block([]int32{0, 1, 2}, constraint{e: pattern.Edge{Bound: k}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err=%v, want context.Canceled", k, err)
		}
		assertScratchZero(t, sw)
	}
}

// sweepCase is one random graph/pattern pair with attribute predicates,
// bounds 1..3 and "*", the occasional ranged or coloured edge.
func sweepCase(seed int64) (*pattern.Pattern, *graph.Graph) {
	r := rand.New(rand.NewSource(seed))
	n := 20 + r.Intn(180)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.SetAttr(i, value.Tuple{"label": value.Str(fmt.Sprintf("L%d", r.Intn(3))), "w": value.Int(int64(r.Intn(100)))})
	}
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if r.Intn(8) == 0 {
			g.AddColoredEdge(u, v, "c")
		} else {
			g.AddEdge(u, v)
		}
	}
	p := pattern.New()
	np := 2 + r.Intn(3)
	for i := 0; i < np; i++ {
		pred := pattern.Label(fmt.Sprintf("L%d", r.Intn(3)))
		if r.Intn(2) == 0 {
			pred = append(pred, pattern.Atom{Attr: "w", Op: value.OpGE, Val: value.Int(int64(r.Intn(60)))})
		}
		p.AddNode(pred)
	}
	for i := 0; i < np+2; i++ {
		from, to := r.Intn(np), r.Intn(np)
		if p.HasEdge(from, to) {
			continue
		}
		switch x := r.Intn(10); {
		case x == 0:
			p.AddColoredEdge(from, to, 1+r.Intn(3), "c")
		case x == 1:
			p.AddRangeEdge(from, to, 2, 2+r.Intn(3), "")
		case x < 4:
			p.MustAddEdge(from, to, pattern.Unbounded)
		default:
			p.MustAddEdge(from, to, 1+r.Intn(3))
		}
	}
	return p, g
}

// With a snapshot MatchOpts sweeps, without one it probes pair by pair;
// relation, InitialPairs and Removals must not tell the two apart — with
// the default witness-matrix cap and with the matrices capped away.
// Coloured and ranged edges sweep on both sides, so MatchNaive referees
// patterns that have them.
func TestSweepEqualsProbe(t *testing.T) {
	limits := []struct {
		name string
		cap  int64
	}{
		{"default", -1},
		{"no-witness-matrix", 0},
	}
	for seed := int64(1); seed <= 30; seed++ {
		p, g := sweepCase(seed)
		o := BuildMatrixOracle(g)
		var want Stats
		ref, err := MatchContext(context.Background(), p, g, o, &want)
		if err != nil {
			t.Fatal(err)
		}
		labelled := p.Colored() || p.Ranged()
		if labelled {
			naive, err := MatchNaive(p, g, o)
			if err != nil {
				t.Fatal(err)
			}
			if !relEqual(naive.Relation(), ref.Relation()) || naive.OK() != ref.OK() {
				t.Fatalf("seed %d: relation differs from MatchNaive\npattern:\n%s", seed, p)
			}
		}
		f := g.Freeze()
		for _, lim := range limits {
			func() {
				defer SweepLimitsForTest(lim.cap)()
				for _, workers := range []int{1, 3} {
					var got Stats
					res, err := MatchOpts(context.Background(), p, g, o, &got, MatchOptions{Frozen: f, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !relEqual(res.Relation(), ref.Relation()) || res.OK() != ref.OK() {
						t.Fatalf("seed %d %s workers %d: relation differs from the probing run\npattern:\n%s", seed, lim.name, workers, p)
					}
					if got.InitialPairs != want.InitialPairs || got.Removals != want.Removals {
						t.Fatalf("seed %d %s workers %d: pairs/removals %d/%d, probing run %d/%d",
							seed, lim.name, workers, got.InitialPairs, got.Removals, want.InitialPairs, want.Removals)
					}
				}
			}()
		}
	}
}

// A run over a snapshot consults no oracle: under the matrix, BFS, 2-hop
// and PLL oracles, at workers 1/2/4/8, it issues no probe, and its
// relation and every work counter — InitialPairs, Removals, SweepScans —
// equal the run with no oracle at all. Each case runs unseeded and
// seeded with its own relation, and also without the live graph: a
// snapshot run reads only the snapshot, so g may be nil, seeded or not.
// The last case is a 400-node graph where one node carries each pattern
// label: blocks of one candidate against one target, where probing once
// looked cheaper than a sweep.
func TestSnapshotRunIgnoresOracle(t *testing.T) {
	ctx := context.Background()
	type matchCase struct {
		p *pattern.Pattern
		g *graph.Graph
	}
	var cases []matchCase
	for seed := int64(1); seed <= 12; seed++ {
		p, g := sweepCase(seed)
		cases = append(cases, matchCase{p, g})
	}
	rare := graph.New(400)
	for i := 0; i < 400; i++ {
		rare.SetAttr(i, value.Tuple{"label": value.Str("X")})
		rare.AddEdge(i, (i+1)%400)
		rare.AddEdge(i, (i+7)%400)
	}
	rare.SetAttr(0, value.Tuple{"label": value.Str("A")})
	rare.SetAttr(200, value.Tuple{"label": value.Str("B")})
	ab := pattern.New()
	a, b := ab.AddNode(pattern.Label("A")), ab.AddNode(pattern.Label("B"))
	ab.MustAddEdge(a, b, pattern.Unbounded)
	ab.MustAddEdge(b, a, 120)
	cases = append(cases, matchCase{ab, rare})
	for ci, c := range cases {
		p, g := c.p, c.g
		f := g.Freeze()
		pllO, err := BuildPLLOracle(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		oracles := map[string]DistOracle{
			"matrix": BuildMatrixOracle(g),
			"bfs":    NewBFSOracleFrozen(f),
			"2hop":   BuildTwoHopOracle(g),
			"pll":    pllO,
		}
		full, err := MatchOpts(ctx, p, g, nil, nil, MatchOptions{Frozen: f})
		if err != nil {
			t.Fatal(err)
		}
		if ci == len(cases)-1 && !full.OK() {
			t.Fatal("the rare-label pattern does not match")
		}
		for _, rows := range [][][]int32{nil, full.Relation()} {
			for _, workers := range []int{1, 2, 4, 8} {
				opts := MatchOptions{Frozen: f, Workers: workers, Seed: rows}
				var want Stats
				ref, err := MatchOpts(ctx, p, g, nil, &want, opts)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := MatchOpts(ctx, p, nil, nil, nil, opts)
				if err != nil {
					t.Fatalf("case %d workers %d seeded %v without g: %v", ci, workers, rows != nil, err)
				}
				if !relEqual(snap.Relation(), ref.Relation()) || snap.OK() != ref.OK() {
					t.Errorf("case %d workers %d seeded %v: the run without g differs", ci, workers, rows != nil)
				}
				for kind, o := range oracles {
					var got Stats
					res, err := MatchOpts(ctx, p, g, o, &got, opts)
					if err != nil {
						t.Fatalf("case %d %s workers %d seeded %v: %v", ci, kind, workers, rows != nil, err)
					}
					if !relEqual(res.Relation(), ref.Relation()) || res.OK() != ref.OK() {
						t.Errorf("case %d %s workers %d seeded %v: relation differs from the oracle-free run", ci, kind, workers, rows != nil)
					}
					if got != want {
						t.Errorf("case %d %s workers %d seeded %v: stats %+v, oracle-free run %+v", ci, kind, workers, rows != nil, got, want)
					}
				}
				if want.OracleQueries != 0 {
					t.Fatalf("case %d workers %d: the oracle-free run counted %d probes", ci, workers, want.OracleQueries)
				}
			}
		}
	}
}

// The sweeper's arrays and the position scratch are pooled and every
// per-candidate structure is sized by the candidate sets, so a
// steady-state query allocates O(|Vp| + |Ep|) objects whatever |V| is:
// the same pattern over the same 60 labelled nodes costs the same number
// of allocations in a graph ten times the size — bounded, and at k = 1
// plain and dual simulation, whose removals walk arcs.
func TestMatchOptsAllocsIndependentOfGraphSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	build := func(n int) (*graph.Graph, *graph.Frozen, DistOracle) {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			label := "rest"
			if i < 60 {
				label = []string{"A", "B", "C"}[i%3]
			}
			g.SetAttr(i, value.Tuple{"label": value.Str(label)})
			g.AddEdge(i, (i+1)%n)
			g.AddEdge(i, (i+7)%n)
		}
		f := g.Freeze()
		return g, f, NewBFSOracleFrozen(f)
	}
	triangle := func(k, star int) *pattern.Pattern {
		p := pattern.New()
		a, b, c := p.AddNode(pattern.Label("A")), p.AddNode(pattern.Label("B")), p.AddNode(pattern.Label("C"))
		p.MustAddEdge(a, b, k)
		p.MustAddEdge(b, c, k)
		p.MustAddEdge(c, a, star)
		return p
	}
	for _, row := range []struct {
		name   string
		p      *pattern.Pattern
		oracle bool
		dual   bool
	}{
		{"match", triangle(3, pattern.Unbounded), true, false},
		{"match without an oracle", triangle(3, pattern.Unbounded), false, false},
		{"sim", triangle(1, 1), false, false},
		{"dual", triangle(1, 1), false, true},
	} {
		p := row.p
		measure := func(n int) float64 {
			g, f, o := build(n)
			if !row.oracle {
				o = nil
			}
			run := func() {
				if _, err := MatchOpts(context.Background(), p, g, o, nil, MatchOptions{Frozen: f, Dual: row.dual}); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the scratch pools, the condensation and the label index
			return testing.AllocsPerRun(20, run)
		}
		small, large := measure(400), measure(4000)
		if large > small+2 {
			t.Errorf("%s: allocations grow with |V|: %.0f at 400 nodes, %.0f at 4000", row.name, small, large)
		}
		if limit := float64(12 * (p.N() + p.EdgeCount())); small > limit {
			t.Errorf("%s: %.0f allocations for a %d-node %d-edge pattern, want at most %.0f", row.name, small, p.N(), p.EdgeCount(), limit)
		}
	}
}
