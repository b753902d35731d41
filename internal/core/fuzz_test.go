package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/simulation"
	"gpm/internal/topo"
	"gpm/internal/value"
)

// The semantics a FuzzSweep case runs under.
const (
	semMatch = iota
	semSim
	semDual
)

// decodeSweepCase deterministically builds a semantics, an oracle choice,
// a small labelled graph and a pattern from fuzz bytes: the semantics
// byte (match, sim, dual; under match, its next bit picks the Fig. 4
// run's oracle: matrix or BFS, and the bit after allows ranged edges), node
// counts, one label byte per node, then pairs — two of three wire a data
// edge (self-loops included), the third a pattern edge. The top two bits
// of a data edge's first byte, or of a pattern edge's second, colour it
// (none, red, blue, red). Under match a pattern edge's bound cycles
// through 1, 2, 3 and "*", or, when ranged edges are allowed and bit 5
// of its second byte is set, through the ranges [2, 2] .. [2, 5]; sim
// and dual are edge-to-edge, so their bounds are all 1. Every byte
// string decodes to a valid case, so the fuzzer explores semantics, not
// rejections.
func decodeSweepCase(data []byte) (sem int, bfs bool, p *pattern.Pattern, g *graph.Graph) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	first := int(next())
	sem, bfs = first%3, first/3%2 == 1
	ranged := sem == semMatch && first/6%2 == 1
	n := 2 + int(next())%10 // 2..11 data nodes
	np := 1 + int(next())%4 // 1..4 pattern nodes
	g = graph.New(n)
	for i := 0; i < n; i++ {
		g.SetAttr(i, graph.Attrs{"label": value.Str(fmt.Sprintf("L%d", next()%3))})
	}
	p = pattern.New()
	for i := 0; i < np; i++ {
		p.AddNode(pattern.Label(fmt.Sprintf("L%d", next()%3)))
	}
	bounds := []int{1, 2, 3, pattern.Unbounded}
	if sem != semMatch {
		bounds = []int{1}
	}
	palette := []string{"", "red", "blue", "red"}
	for i := 0; len(data) >= 2; i++ {
		a, b := int(next()), int(next())
		if i%3 == 2 {
			if from, to := a%np, b%np; !p.HasEdge(from, to) {
				pick, color := (a/np)%len(bounds), palette[b>>6]
				var err error
				if ranged && b>>5&1 == 1 {
					_, err = p.AddRangeEdge(from, to, 2, 2+pick, color)
				} else {
					_, err = p.AddColoredEdge(from, to, bounds[pick], color)
				}
				if err != nil {
					panic(err)
				}
			}
		} else {
			g.AddColoredEdge(a%n, b%n, palette[a>>6])
		}
	}
	return sem, bfs, p, g
}

// FuzzSweep pins MatchOpts over a snapshot, and for bounded simulation
// also the paper's Fig. 4 run with no snapshot, with the default
// witness-matrix cap and with every matrix capped away, against
// references that share neither its counters, nor its witness matrices,
// nor its sweeps: MatchNaive over a distance matrix for bounded
// simulation, whose Fig. 4 run probes the matrix or BFS (coloured and
// ranged edges sweep under either, and at cap 0 sweep once from each
// removed node), simulation.RunNaive and topo.NaiveDualSim for the
// oracle-free simulation and dual simulation runs, whose outputs must
// also pass simulation.IsSimulation and topo.IsDualSim.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{0, 6, 2, 0, 1, 2, 0, 1, 2, 0, 1, 0, 1, 1, 2, 4, 1, 2, 3, 3, 3, 12, 0})
	f.Add([]byte{0, 9, 3, 1, 1, 2, 2, 0, 0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 0, 9, 4, 2, 3, 3, 2, 1, 5, 4, 5, 5, 6, 6, 2})
	f.Add([]byte{1, 6, 2, 0, 1, 2, 0, 1, 2, 0, 1, 0, 1, 1, 2, 4, 1, 2, 3, 3, 3, 12, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sem, bfs, p, g := decodeSweepCase(data)
		fz := g.Freeze()
		var o core.DistOracle
		var want [][]int32
		var wantOK bool
		switch sem {
		case semMatch:
			o = core.BuildMatrixOracle(g)
			ref, err := core.MatchNaive(p, g, o)
			if err != nil {
				t.Fatalf("MatchNaive: %v", err)
			}
			if bfs {
				o = core.NewBFSOracleFrozen(fz)
			}
			want, wantOK = ref.Relation(), ref.OK()
		case semSim:
			var err error
			if want, wantOK, err = simulation.RunNaive(p, fz); err != nil {
				t.Fatalf("RunNaive: %v", err)
			}
		case semDual:
			want, wantOK = topo.NaiveDualSim(p, fz, nil)
		}
		runs := []core.MatchOptions{{Frozen: fz, Dual: sem == semDual}}
		if sem == semMatch {
			runs = append(runs, core.MatchOptions{}) // Fig. 4: probe o pair by pair
		}
		for _, wcap := range []int64{-1, 0} {
			for _, opts := range runs {
				restore := core.SweepLimitsForTest(wcap)
				got, err := core.MatchOpts(context.Background(), p, g, o, nil, opts)
				restore()
				if err != nil {
					t.Fatalf("MatchOpts: %v", err)
				}
				rel := got.Relation()
				if sem == semSim && !simulation.IsSimulation(p, fz, rel) || sem == semDual && !topo.IsDualSim(p, fz, rel) {
					t.Fatalf("semantics %d cap %d: %v is not a simulation of its kind\npattern:\n%s", sem, wcap, rel, p)
				}
				if got.OK() != wantOK || !reflect.DeepEqual(rel, want) {
					t.Fatalf("semantics %d bfs %v cap %d snapshot %v: kernel relation %v, naive %v\npattern:\n%s",
						sem, bfs, wcap, opts.Frozen != nil, rel, want, p)
				}
			}
		}
	})
}
