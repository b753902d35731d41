package core

import (
	"math"
	"sync"
	"sync/atomic"

	"gpm/internal/cancel"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Witness sweeps. Theorem 3.1's |Ep||V|² term is the cost of asking, for
// every pattern edge (u, u′) and every pair of cand(u) × cand(u′), whether
// the second node lies within the edge's bound of the first. A bounded
// witness is a local object — it is found by walking the ball around a
// node, not by interrogating an all-pairs structure — so when the caller
// hands a frozen snapshot, the fixpoint takes cand(u) 64 sources at a
// time and runs ONE traversal per block that carries a uint64 mask per
// node (the trick of internal/pll's bit-parallel build): bit i of the
// mask at w says source i reaches w by a nonempty path within the bound.
// Reading the masks at cand(u′) yields the counters and, for k > 1 and
// kept as a bit matrix per constraint, every later answer remove needs;
// at k = 1 the adjacency itself holds those answers.
//
// The convention is the oracle's: paths are nonempty, so a source carries
// its own bit only when a cycle leads back to it — sources are never
// pre-marked.

// sweepBlock is the number of sources one sweep carries: the mask width.
const sweepBlock = 64

// sweeper runs mask sweeps over one snapshot. It is per-goroutine state;
// the scratch comes from graph's pool and must be released with close.
type sweeper struct {
	f     *graph.Frozen
	s     *graph.SweepScratch
	cond  *graph.Condensation // non-nil while the masks are per component
	poll  *cancel.Poller
	scans int64 // adjacency entries scanned, all sweeps
}

func newSweeper(f *graph.Frozen, poll *cancel.Poller) *sweeper {
	return &sweeper{f: f, s: graph.GetSweepScratch(f.N()), poll: poll}
}

// close returns the scratch to the pool.
func (sw *sweeper) close() { sw.s.Put() }

// bounded sweeps c's bound in levels out of srcs (at most sweepBlock of
// them), level by level over a frontier list: a node is expanded at a
// level only with the bits that first reached it at the previous one.
// It follows out-arcs, in-arcs for a parent constraint, and only arcs of
// the edge's colour when it has one. A coloured "*" edge runs |V|
// levels, the longest a shortest path can be, since the condensation
// ignores colours. A ranged edge [lo, hi] accumulates masks over levels
// lo..hi only. Walks may revisit nodes, so below lo nothing is pruned:
// level ℓ's mask at y is the OR of level ℓ−1's masks over the arcs into
// y, at most |E| scans a level. From lo on first-reach pruning is sound
// again: a bit that reaches y a second time can only extend walks that
// its first arrival, at least lo and earlier, already extends within hi.
// It gives up — ok false, masks already reset — once it has scanned more
// than budget adjacency entries. After ok, mask is valid until reset.
func (sw *sweeper) bounded(srcs []int32, c constraint, budget int64) (ok bool, err error) {
	s := sw.s
	front := s.Frontier[:0]
	for i, x := range srcs {
		if s.Cur[x] == 0 {
			front = append(front, x)
		}
		s.Cur[x] |= 1 << uint(i)
	}
	touched := s.Touched[:0]
	var scanned int64
	k, lo, color := c.e.Bound, c.e.MinBound, c.e.Color
	if k == pattern.Unbounded {
		k = sw.f.N()
	}
	for level := 1; level <= k && len(front) > 0; level++ {
		if err = sw.poll.Now(); err != nil {
			break
		}
		grown := s.Grown[:0]
		last := level == k // nothing expands after it: no frontier to keep
		for _, w := range front {
			m := s.Cur[w]
			s.Cur[w] = 0
			adj := arcs(sw.f, w, c.parent)
			scanned += int64(len(adj))
			for _, y := range adj {
				fresh := m &^ s.Seen[y] // Seen stays empty below lo
				if fresh == 0 || color != "" && arcColor(sw.f, w, y, c.parent) != color {
					continue
				}
				if level >= lo {
					if s.Seen[y] == 0 {
						touched = append(touched, y)
					}
					s.Seen[y] |= fresh
				}
				if last {
					continue
				}
				if s.Next[y] == 0 {
					grown = append(grown, y)
				}
				s.Next[y] |= fresh
			}
			if scanned > budget {
				break
			}
		}
		s.Cur, s.Next = s.Next, s.Cur
		s.Frontier, s.Grown = grown, front
		if scanned > budget {
			// Abandoned mid-level: the unexpanded rest of the old frontier
			// still holds its masks (in what is now Next).
			for _, w := range front {
				s.Next[w] = 0
			}
			front = grown
			break
		}
		front = grown
	}
	// The last frontier's masks were never expanded; clear them.
	for _, w := range front {
		s.Cur[w] = 0
	}
	s.Touched = touched
	sw.scans += scanned
	sw.cond = nil
	if err != nil || scanned > budget {
		sw.reset()
		return false, err
	}
	return true, nil
}

// unbounded answers a "*" block through the SCC condensation: unbounded
// reachability factors through components, so one descending pass over
// component ids (reverse topological: edges lead from higher to lower)
// ORs each component's mask into its successors', scanning every edge at
// most once — where a level-synchronous sweep would re-scan a node each
// time another source's bit arrived. A source inside a component with an
// internal edge reaches the whole component, itself included; a trivial
// component does not reach itself. After the pass, Seen is indexed by
// component id.
func (sw *sweeper) unbounded(srcs []int32) error {
	if err := sw.poll.Now(); err != nil {
		return err
	}
	s := sw.s
	cond := sw.f.Condensation()
	sw.cond = cond
	// Cur[c] collects the sources inside c; Seen[c] what reaches c from
	// outside, and — for cyclic c — from inside as well.
	touched := s.Touched[:0]
	top := int32(-1)
	for i, x := range srcs {
		c := cond.Of(int(x))
		if s.Cur[c] == 0 {
			touched = append(touched, c)
		}
		s.Cur[c] |= 1 << uint(i)
		if c > top {
			top = c
		}
	}
	pending := len(touched) // components with a mask still to push down
	for c := top; c >= 0 && pending > 0; c-- {
		out := s.Seen[c] | s.Cur[c]
		if out == 0 {
			continue
		}
		pending--
		if err := sw.poll.Err(); err != nil {
			s.Touched = touched
			sw.reset()
			return err
		}
		if cond.Cyclic(int(c)) {
			s.Seen[c] = out
		}
		for _, w := range cond.Nodes(int(c)) {
			adj := sw.f.Out(int(w))
			sw.scans += int64(len(adj))
			for _, y := range adj {
				cy := cond.Of(int(y))
				if cy == c {
					continue
				}
				if s.Seen[cy] == 0 && s.Cur[cy] == 0 {
					touched = append(touched, cy)
					pending++
				}
				s.Seen[cy] |= out
			}
		}
	}
	s.Touched = touched
	return nil
}

// arcs returns w's out-arcs, or its in-arcs when the walk runs against
// the edges.
func arcs(f *graph.Frozen, w int32, reverse bool) []int32 {
	if reverse {
		return f.In(int(w))
	}
	return f.Out(int(w))
}

// arcColor returns the colour of the arc a walk crossed from w to y:
// edge (w, y), or edge (y, w) when the walk follows in-arcs.
func arcColor(f *graph.Frozen, w, y int32, reverse bool) string {
	if reverse {
		return f.Color(int(y), int(w))
	}
	return f.Color(int(w), int(y))
}

// mask returns the sources of the last sweep that reach z.
func (sw *sweeper) mask(z int32) uint64 {
	if sw.cond != nil {
		return sw.s.Seen[sw.cond.Of(int(z))]
	}
	return sw.s.Seen[z]
}

// reset zeroes what the last sweep wrote, through its touched list.
func (sw *sweeper) reset() {
	s := sw.s
	for _, w := range s.Touched {
		s.Seen[w] = 0
		if sw.cond != nil {
			s.Cur[w] = 0
		}
	}
	s.Touched = s.Touched[:0]
}

// witnessMatrix is W_c for one constraint c: one row per member of
// cand(c.to), one bit per member of cand(c.from), set when the former
// witnesses c for the latter — for a child constraint of edge (u, u′),
// when the member of cand(u) reaches the member of cand(u′) within the
// edge's bound. remove(c.to, z) walks row z instead of sweeping back
// from z. At k = 1 the arcs into z are that row already, so a one-hop
// constraint keeps none.
type witnessMatrix struct {
	words int // per row: ⌈|cand(c.from)| / 64⌉
	bits  []uint64
}

func (w *witnessMatrix) row(j int) []uint64 { return w.bits[j*w.words : (j+1)*w.words] }

// positions maps a data node to 1 + its position in one cand list, 0
// for a non-member: how remove turns an arc, or a node its reverse
// sweep touched, into a counter to decrement. It is pooled like
// graph.SweepScratch, and zero in, zero out: put clears it through the
// cand list it was filled from.
type positions struct{ at []int32 }

var positionsPool = sync.Pool{New: func() interface{} { return new(positions) }}

// getPositions returns a pooled scratch over n data nodes, filled from cand.
func getPositions(cand []int32, n int) *positions {
	p := positionsPool.Get().(*positions)
	if cap(p.at) < n {
		p.at = make([]int32, n)
	}
	p.at = p.at[:n] // within capacity every entry is zero by the put contract
	for j, x := range cand {
		p.at[x] = int32(j + 1)
	}
	return p
}

// put zeroes what getPositions wrote and returns p to the pool.
func (p *positions) put(cand []int32) {
	for _, x := range cand {
		p.at[x] = 0
	}
	positionsPool.Put(p)
}

// The cost rule. A block's sweep may scan c(o) × |block| × |cand(u′)|
// adjacency entries — what probing the block would cost, with one probe
// priced at c(o) scans — before it is abandoned for probes. That keeps a
// containment-seeded query over a handful of candidates from paying for a
// traversal of the graph, with no knob to turn.
//
// A scan is an L1/L2-resident load, mask test and OR: about 2 ns. The
// traced benchmark run measures matrix.probe_ns at 30–35 ns (one load
// from a |V|² table, a miss past a few thousand nodes), hence 16. A PLL
// probe merges one label against an expanded one and checks the
// bit-parallel roots, 0.25–1.5 µs on the 5000-node benchmark graph
// (pll.probe_ns) whose labels average 93 entries a side; two scans per
// entry of an average label pair — LabelEntries / |V| — prices it at 187
// there and follows the labelling as it grows. The BFS-backed oracles pay
// a whole traversal whenever the probed source changes, so a probe is
// priced at |E| and their blocks always sweep. A run with no oracle has
// nothing to fall back to: like a labelled edge's, its blocks sweep with
// no budget. The rule governs counter initialisation only; in sweep
// mode remove never probes.
const (
	matrixProbeCost  = 16
	unknownProbeCost = 16 // user-supplied oracles: assume the cheapest
)

// probeCost returns c(o).
func probeCost(o DistOracle, f *graph.Frozen) int64 {
	switch o := o.(type) {
	case *MatrixOracle:
		return matrixProbeCost
	case *PLLOracle:
		if n := o.idx.N(); n > 0 {
			if c := int64(o.idx.LabelEntries() / n); c > matrixProbeCost {
				return c
			}
		}
		return matrixProbeCost
	case *BFSOracle, *TwoHopOracle:
		return int64(f.M()) + 1
	}
	return unknownProbeCost
}

// witnessCapDefault bounds the bytes of witness matrices one query may
// hold. Past it a constraint keeps its sweep-computed counters and
// remove sweeps once from the removed node instead of reading a row, so
// a wildcard predicate on a large graph cannot allocate |V|²/8 bytes.
// One-hop constraints keep no matrix and spend none of it.
const witnessCapDefault = 32 << 20

// sweepLimits overrides the cost rule and the cap for tests; a negative
// field leaves that limit to its rule.
type sweepLimits struct{ budget, witnessCap int64 }

// limitsOverride is nil outside tests. Atomic, because the hook may be
// flipped while other tests' engines are still alive.
var limitsOverride atomic.Pointer[sweepLimits]

// SweepLimitsForTest forces every block's scan budget and the per-query
// witness-matrix cap (bytes) until restore is called; a negative value
// leaves that limit to its rule. Budget 0 sends every block of a plain
// edge to probes when there is an oracle to probe, math.MaxInt64 sweeps
// them all; cap 0 keeps no witness matrix, so in sweep mode every
// removal walks arcs or sweeps from the removed node, and in Fig. 4 mode
// a labelled constraint's does. It exists for the differential tests
// (internal/difftest), which referee sweep ≡ probe at those extremes.
func SweepLimitsForTest(budget, witnessCap int64) (restore func()) {
	old := limitsOverride.Swap(&sweepLimits{budget, witnessCap})
	return func() { limitsOverride.Store(old) }
}

// blockBudget applies the cost rule to one block.
func blockBudget(cost int64, block, targets int) int64 {
	if l := limitsOverride.Load(); l != nil && l.budget >= 0 {
		return l.budget
	}
	if cost > math.MaxInt64/int64(sweepBlock)/int64(targets+1) {
		return math.MaxInt64
	}
	return cost * int64(block) * int64(targets)
}

// witnessCap returns the bytes of witness matrices one query may hold.
func witnessCap() int64 {
	if l := limitsOverride.Load(); l != nil && l.witnessCap >= 0 {
		return l.witnessCap
	}
	return witnessCapDefault
}

// sweepable reports whether constraint c is answered by sweeps: every
// constraint when the caller handed a snapshot, and a labelled one
// always.
func (st *state) sweepable(c constraint) bool {
	return st.sweep || labelled(c.e)
}

// labelled reports whether e carries a colour or a hop range. Its
// witness is then a labelled walk, which no oracle answers: the kernel
// sweeps its constraints with no budget, freezing the graph if the
// caller gave no snapshot, and remove never probes them.
func labelled(e pattern.Edge) bool { return e.Color != "" || e.Ranged() }

// oneHop reports whether e's witness is a single arc (of e's colour, if
// any): bound 1, no hop range.
func oneHop(e pattern.Edge) bool { return e.Bound == 1 && !e.Ranged() }

// block runs the sweep for one block of sources of constraint c,
// reporting whether the masks are ready (false: probe the block instead).
func (sw *sweeper) block(srcs []int32, c constraint, budget int64) (bool, error) {
	if c.e.Bound == pattern.Unbounded && c.e.Color == "" {
		// One pass costs up to |E| whatever the block holds.
		if budget < int64(sw.f.M()) {
			return false, nil
		}
		err := sw.unbounded(srcs)
		return err == nil, err
	}
	return sw.bounded(srcs, c, budget)
}
