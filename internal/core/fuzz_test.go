package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

// decodeSweepCase deterministically builds a small labelled graph and a
// bounded pattern from fuzz bytes: node counts, one label byte per node,
// then triples — two of three wire a data edge (self-loops included),
// the third a pattern edge whose bound cycles through 1, 2, 3 and "*".
// Every byte string decodes to a valid case, so the fuzzer explores
// semantics, not rejections.
func decodeSweepCase(data []byte) (*pattern.Pattern, *graph.Graph) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next())%10 // 2..11 data nodes
	np := 1 + int(next())%4 // 1..4 pattern nodes
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.SetAttr(i, graph.Attrs{"label": value.Str(fmt.Sprintf("L%d", next()%3))})
	}
	p := pattern.New()
	for i := 0; i < np; i++ {
		p.AddNode(pattern.Label(fmt.Sprintf("L%d", next()%3)))
	}
	bounds := []int{1, 2, 3, pattern.Unbounded}
	for i := 0; len(data) >= 2; i++ {
		a, b := int(next()), int(next())
		if i%3 == 2 {
			if from, to := a%np, b%np; !p.HasEdge(from, to) {
				p.MustAddEdge(from, to, bounds[(a/np)%len(bounds)])
			}
		} else {
			g.AddEdge(a%n, b%n)
		}
	}
	return p, g
}

// FuzzSweep pins the sweep path of MatchOpts — under the cost rule, which
// on graphs this small sends most blocks to probes, and with every block
// forced to sweep — against MatchNaive, the textbook fixpoint that shares
// neither the counters, nor the witness matrices, nor the sweeps.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{6, 2, 0, 1, 2, 0, 1, 2, 0, 1, 0, 1, 1, 2, 4, 1, 2, 3, 3, 3, 12, 0})
	f.Add([]byte{9, 3, 1, 1, 2, 2, 0, 0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 0, 9, 4, 2, 3, 3, 2, 1, 5, 4, 5, 5, 6, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, g := decodeSweepCase(data)
		o := BuildMatrixOracle(g)
		want, err := MatchNaive(p, g, o)
		if err != nil {
			t.Fatalf("MatchNaive: %v", err)
		}
		fz := g.Freeze()
		for _, budget := range []int64{-1, math.MaxInt64} {
			restore := SweepLimitsForTest(budget, -1)
			got, err := MatchOpts(context.Background(), p, g, o, nil, MatchOptions{Frozen: fz})
			restore()
			if err != nil {
				t.Fatalf("MatchOpts: %v", err)
			}
			if got.OK() != want.OK() || !relEqual(got.Relation(), want.Relation()) {
				t.Fatalf("budget %d: sweep relation %v, naive %v\npattern:\n%s", budget, got.Relation(), want.Relation(), p)
			}
		}
	})
}
