package core

import (
	"context"
	"errors"
	"testing"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

// ringGraph returns a single directed cycle over n uniformly-labelled
// nodes: every node reaches every node, so a self-loop pattern keeps all
// pairs alive and the counter loops run long enough to observe a poll.
func ringGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.SetAttr(i, value.Tuple{"label": value.Str("A")})
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// cancellingOracle cancels its context after a fixed number of probes,
// making "cancelled mid-fixpoint" deterministic.
type cancellingOracle struct {
	inner  DistOracle
	cancel context.CancelFunc
	after  int
	n      int
}

func (c *cancellingOracle) NonemptyDistWithin(u, v, bound int) int {
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	return c.inner.NonemptyDistWithin(u, v, bound)
}

func TestMatchContextCancelledMidFixpoint(t *testing.T) {
	g := ringGraph(300)
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("A"))
	p.MustAddEdge(a, b, pattern.Unbounded)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := &cancellingOracle{inner: BuildMatrixOracle(g), cancel: cancel, after: 1000}
	res, err := MatchContext(ctx, p, g, o, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("res = %v, want nil on cancellation", res)
	}
	if o.n < o.after {
		t.Fatalf("oracle saw %d probes; cancellation never happened mid-fixpoint", o.n)
	}
}

// The sweep path's twin: with a snapshot there are no probes to count, so
// the context is cancelled up front. Sweeps check it at every frontier
// level and component pass whatever the amortised poller's phase, so even
// a query far too small to reach a 4096-call polling interval returns
// ctx.Err() and no result.
func TestMatchContextCancelledSweep(t *testing.T) {
	g := ringGraph(300)
	f := g.Freeze()
	o := BuildMatrixOracle(g)
	for _, bound := range []int{2, pattern.Unbounded} {
		p := pattern.New()
		a := p.AddNode(pattern.Label("A"))
		b := p.AddNode(pattern.Label("A"))
		p.MustAddEdge(a, b, bound)

		var stats Stats
		if _, err := MatchOpts(context.Background(), p, g, o, &stats, MatchOptions{Frozen: f}); err != nil {
			t.Fatal(err)
		}
		if stats.OracleQueries != 0 || stats.SweepScans == 0 {
			t.Fatalf("bound %d: %d probes, %d scans; the live run should sweep", bound, stats.OracleQueries, stats.SweepScans)
		}
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := MatchOpts(ctx, p, g, o, nil, MatchOptions{Frozen: f, Workers: workers})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("bound %d workers %d: err = %v, want context.Canceled", bound, workers, err)
			}
			if res != nil {
				t.Fatalf("bound %d workers %d: res = %v, want nil on cancellation", bound, workers, res)
			}
		}
	}
}

func TestMatchContextStats(t *testing.T) {
	// A 50-ring whose first half is labelled A, second half B. Under
	// "A -> B within 1 hop" only the last A (node 24) survives: its
	// successor is the first B. The other 24 A-candidates refine away.
	g := graph.New(50)
	for i := 0; i < 50; i++ {
		label := "A"
		if i >= 25 {
			label = "B"
		}
		g.SetAttr(i, value.Tuple{"label": value.Str(label)})
		g.AddEdge(i, (i+1)%50)
	}
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("B"))
	p.MustAddEdge(a, b, 1)

	// Without a snapshot the fixpoint probes the oracle pair by pair
	// (Fig. 4); with one it sweeps and never asks. Pairs and removals are
	// the same work either way.
	for _, withFrozen := range []bool{false, true} {
		var stats Stats
		var opts MatchOptions
		if withFrozen {
			opts.Frozen = g.Freeze()
		}
		res, err := MatchOpts(context.Background(), p, g, BuildMatrixOracle(g), &stats, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatal("pattern should match (node 24 -> node 25)")
		}
		if got := len(res.Mat(a)); got != 1 {
			t.Fatalf("mat(a) has %d nodes, want 1", got)
		}
		if stats.InitialPairs != 50 {
			t.Errorf("InitialPairs = %d, want 50 (25 A + 25 B candidates)", stats.InitialPairs)
		}
		if stats.Removals != 24 {
			t.Errorf("Removals = %d, want 24 (all A candidates but node 24)", stats.Removals)
		}
		if withFrozen {
			if stats.OracleQueries != 0 || stats.SweepScans == 0 {
				t.Errorf("with a snapshot: OracleQueries = %d, SweepScans = %d, want 0 and > 0", stats.OracleQueries, stats.SweepScans)
			}
		} else if stats.OracleQueries == 0 || stats.SweepScans != 0 {
			t.Errorf("without a snapshot: OracleQueries = %d, SweepScans = %d, want > 0 and 0", stats.OracleQueries, stats.SweepScans)
		}
	}
}

func TestMatchContextBackgroundMatchesPlain(t *testing.T) {
	g := ringGraph(40)
	p := pattern.New()
	a := p.AddNode(pattern.Label("A"))
	b := p.AddNode(pattern.Label("A"))
	p.MustAddEdge(a, b, 3)

	plain, err := MatchWithOracle(p, g, BuildMatrixOracle(g))
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	ctxed, err := MatchContext(context.Background(), p, g, BuildMatrixOracle(g), &stats)
	if err != nil {
		t.Fatal(err)
	}
	if !relEqual(plain.Relation(), ctxed.Relation()) {
		t.Fatal("MatchContext relation differs from MatchWithOracle")
	}
}
