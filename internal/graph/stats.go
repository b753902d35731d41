package graph

import (
	"fmt"
	"sort"
)

// Stats summarises degree structure; the experiment harness prints it for
// the dataset table and the generators assert against it.
type Stats struct {
	Nodes, Edges   int
	MinOut, MaxOut int
	MinIn, MaxIn   int
	AvgDegree      float64 // edges per node
	Sinks          int     // out-degree 0
	Sources        int     // in-degree 0
	SelfLoops      int
	MedianOut      int
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{Nodes: g.N(), Edges: g.M()}
	if g.N() == 0 {
		return s
	}
	outs := make([]int, g.N())
	s.MinOut, s.MinIn = g.N()+1, g.N()+1
	for v := 0; v < g.N(); v++ {
		od, id := g.OutDegree(v), g.InDegree(v)
		outs[v] = od
		if od < s.MinOut {
			s.MinOut = od
		}
		if od > s.MaxOut {
			s.MaxOut = od
		}
		if id < s.MinIn {
			s.MinIn = id
		}
		if id > s.MaxIn {
			s.MaxIn = id
		}
		if od == 0 {
			s.Sinks++
		}
		if id == 0 {
			s.Sources++
		}
		if g.HasEdge(v, v) {
			s.SelfLoops++
		}
	}
	s.AvgDegree = float64(g.M()) / float64(g.N())
	sort.Ints(outs)
	s.MedianOut = outs[len(outs)/2]
	return s
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d avg-deg=%.2f out[%d..%d] in[%d..%d] sinks=%d sources=%d",
		s.Nodes, s.Edges, s.AvgDegree, s.MinOut, s.MaxOut, s.MinIn, s.MaxIn, s.Sinks, s.Sources)
}

// StronglyConnectedComponents returns the SCCs of g in reverse
// topological order of the condensation (see Frozen.Condensation, which
// holds the one Tarjan implementation).
func StronglyConnectedComponents(g *Graph) [][]int32 {
	c := g.Freeze().Condensation()
	comps := make([][]int32, c.Components())
	for id := range comps {
		comps[id] = c.Nodes(id)
	}
	return comps
}
