// Package matrix computes and stores the all-pairs distance matrix M of a
// data graph (paper §3, Match line 1), plus the shortest-cycle vector
// needed to answer "nonempty path" queries from a node to itself.
//
// M is computed by one BFS per source, O(|V|(|V|+|E|)) total, parallelised
// across sources. Entries are int32 with -1 meaning unreachable; M[v][v]
// is 0 by convention, and Cycle(v) gives the length of the shortest
// nonempty cycle through v (or -1).
package matrix

import (
	"fmt"
	"runtime"
	"sync"

	"gpm/internal/graph"
)

// Matrix is an all-pairs shortest path distance matrix.
type Matrix struct {
	n   int
	d   [][]int32 // d[u][v]: distance u->v; -1 unreachable; d[u][u]=0
	cyc []int32   // shortest nonempty cycle through v; -1 if none
}

// New computes the distance matrix of g with one BFS per source, run on
// all available CPUs over a frozen CSR snapshot of g.
func New(g *graph.Graph) *Matrix {
	return NewFrozen(g.Freeze(), runtime.GOMAXPROCS(0))
}

// NewSequential computes the matrix single-threaded; used by tests and by
// benchmarks that want stable timings.
func NewSequential(g *graph.Graph) *Matrix {
	return NewFrozen(g.Freeze(), 1)
}

// NewFrozen computes the distance matrix of an already-frozen snapshot
// across the given number of workers. Callers that hold a Frozen (the
// engine layer keeps one per bound graph) skip the O(|V|+|E|) re-freeze
// that New pays.
func NewFrozen(f *graph.Frozen, workers int) *Matrix {
	n := f.N()
	m := &Matrix{n: n, d: make([][]int32, n)}
	if n == 0 {
		return m
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Pooled queue scratch: sticky across sources and across
			// successive builds.
			s := graph.GetScratch(0)
			defer s.Put()
			for src := lo; src < hi; src++ {
				row := make([]int32, n)
				for i := range row {
					row[i] = -1
				}
				f.BFSDistInto(src, -1, row, &s.Queue)
				m.d[src] = row
			}
		}(lo, hi)
	}
	wg.Wait()
	m.cyc = cyclesFrozen(f, m.d, workers)
	return m
}

// cyclesFrozen derives the shortest-cycle vector from the matrix in
// parallel: cyc[v] = 1 + min over successors w of d[w][v].
func cyclesFrozen(f *graph.Frozen, d [][]int32, workers int) []int32 {
	n := f.N()
	cyc := make([]int32, n)
	if workers <= 1 || n < 2048 {
		for v := range cyc {
			cyc[v] = cycleOfFrozen(f, d, v)
		}
		return cyc
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				cyc[v] = cycleOfFrozen(f, d, v)
			}
		}(lo, hi)
	}
	wg.Wait()
	return cyc
}

func cycleOfFrozen(f *graph.Frozen, d [][]int32, v int) int32 {
	best := int32(-1)
	for _, w := range f.Out(v) {
		if dv := d[w][v]; dv >= 0 && (best < 0 || dv+1 < best) {
			best = dv + 1
		}
	}
	return best
}

func cycleOf(g *graph.Graph, d [][]int32, v int) int32 {
	best := int32(-1)
	for _, w := range g.Out(v) {
		if dv := d[w][v]; dv >= 0 && (best < 0 || dv+1 < best) {
			best = dv + 1
		}
	}
	return best
}

// N returns the number of nodes.
func (m *Matrix) N() int { return m.n }

// Dist returns the shortest-path distance u->v (0 when u == v, -1 when
// unreachable).
func (m *Matrix) Dist(u, v int) int { return int(m.d[u][v]) }

// Set overwrites one entry; the incremental layer uses it.
func (m *Matrix) Set(u, v int, dist int32) { m.d[u][v] = dist }

// Cycle returns the length of the shortest nonempty cycle through v, or
// -1 when v lies on no cycle.
func (m *Matrix) Cycle(v int) int { return int(m.cyc[v]) }

// SetCycle overwrites the cycle entry for v.
func (m *Matrix) SetCycle(v int, c int32) { m.cyc[v] = c }

// RecomputeCycle refreshes cyc[v] from the current matrix and graph and
// returns the new value.
func (m *Matrix) RecomputeCycle(g *graph.Graph, v int) int32 {
	m.cyc[v] = cycleOf(g, m.d, v)
	return m.cyc[v]
}

// NonemptyDist returns the length of the shortest *nonempty* path from u
// to v: the matrix entry when u != v, the shortest cycle when u == v
// (paper §2.2: every pattern edge maps to a path of length >= 1).
func (m *Matrix) NonemptyDist(u, v int) int {
	if u == v {
		return int(m.cyc[u])
	}
	return int(m.d[u][v])
}

// Row exposes the distance row of src; callers must not modify it.
func (m *Matrix) Row(src int) []int32 { return m.d[src] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, d: make([][]int32, m.n), cyc: append([]int32(nil), m.cyc...)}
	for i, row := range m.d {
		c.d[i] = append([]int32(nil), row...)
	}
	return c
}

// Equal reports whether two matrices have identical entries, including
// cycle vectors. Used by incremental-update tests.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.d {
		for j := range m.d[i] {
			if m.d[i][j] != o.d[i][j] {
				return false
			}
		}
		if m.cyc[i] != o.cyc[i] {
			return false
		}
	}
	return true
}

// Diff returns a human-readable list of differing entries (at most max),
// for debugging incremental updates.
func (m *Matrix) Diff(o *Matrix, max int) []string {
	var out []string
	if m.n != o.n {
		return []string{fmt.Sprintf("size %d vs %d", m.n, o.n)}
	}
	for i := 0; i < m.n && len(out) < max; i++ {
		for j := 0; j < m.n && len(out) < max; j++ {
			if m.d[i][j] != o.d[i][j] {
				out = append(out, fmt.Sprintf("d[%d][%d]: %d vs %d", i, j, m.d[i][j], o.d[i][j]))
			}
		}
		if m.cyc[i] != o.cyc[i] && len(out) < max {
			out = append(out, fmt.Sprintf("cyc[%d]: %d vs %d", i, m.cyc[i], o.cyc[i]))
		}
	}
	return out
}

// MemoryBytes estimates the matrix footprint, reported by the harness so
// scale factors can be chosen consciously.
func (m *Matrix) MemoryBytes() int64 {
	return int64(m.n)*int64(m.n)*4 + int64(m.n)*4
}
