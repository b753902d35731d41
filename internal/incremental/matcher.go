package incremental

import (
	"fmt"

	"gpm/internal/pattern"
)

// MatchPair is one element of AFF2: pattern node U gained or lost data
// node X.
type MatchPair struct {
	U int32
	X int32
}

// Delta reports what one batch of updates did to the maximum match.
type Delta struct {
	Added      []MatchPair // pairs that joined the relation
	Removed    []MatchPair // pairs that left the relation
	Aff1       int         // |AFF1|: distance/cycle pairs changed
	Aff2       int         // |AFF2|: len(Added) + len(Removed)
	Recomputed bool        // true when the cyclic-pattern fallback re-ran the batch algorithm
}

// Maintainer is the engine-facing contract of every incrementally
// maintained match: the bounded-simulation Matcher and the sim/dual/
// strong watch states (SimMatcher, StrongMatcher) all implement it, so
// one watcher registry and one Update write path drive the whole
// semantics lattice.
type Maintainer interface {
	Pattern() *pattern.Pattern
	OK() bool
	Pairs() int
	Mat(u int) []int32
	Relation() [][]int32
	// ApplyPrecomputed absorbs a batch whose structural (and, for
	// matrix-backed maintainers, distance) effects were already applied
	// to the shared graph. aff is the AFF1 set DynMatrix.Apply returned,
	// or nil when no distance matrix is maintained; adjacency-based
	// maintainers ignore it.
	ApplyPrecomputed(aff []Pair, updates []Update) Delta
}

// Matcher maintains the maximum bounded-simulation match of one pattern
// over a mutating data graph — the paper's IncMatch (Fig. 8). Distance
// increases flow through the Match⁻ removal cascade (Fig. 5, sound and
// complete for arbitrary patterns); distance decreases flow through the
// Match⁺ addition cascade (Fig. 7), which is complete for DAG patterns.
// For cyclic patterns with decreases the matcher falls back to the batch
// fixpoint (reusing the incrementally-updated matrix) and flags it,
// mirroring the paper's scope (Theorem 4.1 / Lemma 4.4).
//
// State: per pattern edge e = (u, u′) and candidate x of u, cnt[e][x]
// counts mat(u′) members within bound of x under the CURRENT distances.
// This realises the paper's desc(...) ∩ mat(...) emptiness tests in O(1).
type Matcher struct {
	p  *pattern.Pattern
	dm *DynMatrix

	predOK   [][]bool // static: fv(u) holds at x
	needsOut []bool   // pattern node has out-edges
	inCand   [][]bool // predOK && out-degree condition
	inMat    [][]bool
	matSize  []int
	cnt      [][]int32
	isDAG    bool

	removeQ []MatchPair
	addQ    []MatchPair
}

// NewMatcher computes the initial maximum match of p over dm's graph and
// retains the counter state for incremental maintenance.
func NewMatcher(p *pattern.Pattern, dm *DynMatrix) (*Matcher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Colored() {
		return nil, fmt.Errorf("incremental: colored pattern edges are not supported; use core.Match after each change")
	}
	if p.Ranged() {
		return nil, fmt.Errorf("incremental: ranged pattern edges are not supported; use core.Match after each change")
	}
	m := &Matcher{p: p, dm: dm, isDAG: p.IsDAG()}
	m.initPredicates()
	m.rebuild()
	return m, nil
}

// Pattern returns the maintained pattern.
func (m *Matcher) Pattern() *pattern.Pattern { return m.p }

// DynMatrix returns the maintained graph+matrix pair.
func (m *Matcher) DynMatrix() *DynMatrix { return m.dm }

// OK reports whether P ⊴ G currently holds.
func (m *Matcher) OK() bool {
	for _, s := range m.matSize {
		if s == 0 {
			return false
		}
	}
	return true
}

// Mat returns the sorted data nodes currently matching pattern node u.
func (m *Matcher) Mat(u int) []int32 {
	var out []int32
	for x, in := range m.inMat[u] {
		if in {
			out = append(out, int32(x))
		}
	}
	return out
}

// Relation snapshots the whole relation.
func (m *Matcher) Relation() [][]int32 {
	out := make([][]int32, m.p.N())
	for u := range out {
		out[u] = m.Mat(u)
	}
	return out
}

// Pairs returns |S|.
func (m *Matcher) Pairs() int {
	total := 0
	for _, s := range m.matSize {
		total += s
	}
	return total
}

// ndist is the nonempty-path distance under the maintained matrix.
func (m *Matcher) ndist(x, z int) int { return m.dm.Matrix().NonemptyDist(x, z) }

func (m *Matcher) withinBound(x, z int, e pattern.Edge) bool {
	d := m.ndist(x, z)
	return d >= 0 && (e.Bound == pattern.Unbounded || d <= e.Bound)
}

func wasWithinBound(old int32, e pattern.Edge) bool {
	return old >= 0 && (e.Bound == pattern.Unbounded || int(old) <= e.Bound)
}

func nowWithinBound(nw int32, e pattern.Edge) bool {
	return nw >= 0 && (e.Bound == pattern.Unbounded || int(nw) <= e.Bound)
}

// initPredicates evaluates every predicate once; attribute values are
// immutable under edge updates.
func (m *Matcher) initPredicates() {
	np, n := m.p.N(), m.dm.Graph().N()
	m.predOK = make([][]bool, np)
	m.needsOut = make([]bool, np)
	for u := 0; u < np; u++ {
		m.predOK[u] = make([]bool, n)
		m.needsOut[u] = m.p.OutDegree(u) > 0
		pred := m.p.Pred(u)
		for x := 0; x < n; x++ {
			m.predOK[u][x] = pred.Match(m.dm.Graph().Attr(x))
		}
	}
}

// rebuild recomputes candidacy, counters and the relation from scratch
// against the current matrix — the batch algorithm of §3 run in place.
func (m *Matcher) rebuild() {
	np, n := m.p.N(), m.dm.Graph().N()
	g := m.dm.Graph()
	m.inCand = make([][]bool, np)
	m.inMat = make([][]bool, np)
	m.matSize = make([]int, np)
	for u := 0; u < np; u++ {
		m.inCand[u] = make([]bool, n)
		m.inMat[u] = make([]bool, n)
		for x := 0; x < n; x++ {
			if !m.predOK[u][x] {
				continue
			}
			if m.needsOut[u] && g.OutDegree(x) == 0 {
				continue
			}
			m.inCand[u][x] = true
			m.inMat[u][x] = true
			m.matSize[u]++
		}
	}
	m.cnt = make([][]int32, m.p.EdgeCount())
	m.removeQ = m.removeQ[:0]
	m.addQ = m.addQ[:0]
	for eid := 0; eid < m.p.EdgeCount(); eid++ {
		e := m.p.EdgeAt(eid)
		c := make([]int32, n)
		m.cnt[eid] = c
		for x := 0; x < n; x++ {
			if !m.inCand[e.From][x] {
				continue
			}
			for z := 0; z < n; z++ {
				if m.inMat[e.To][z] && m.withinBound(x, z, e) {
					c[x]++
				}
			}
			if c[x] == 0 {
				m.removeQ = append(m.removeQ, MatchPair{int32(e.From), int32(x)})
			}
		}
	}
	var sink []MatchPair
	m.drainRemovals(&sink)
}

// Apply performs one batch of edge updates (the paper's IncMatch): it
// updates the distance matrix (UpdateBM), converts AFF1 into counter
// deltas, cascades removals and additions, and reports AFF2.
func (m *Matcher) Apply(updates []Update) (Delta, error) {
	aff, err := m.dm.Apply(updates)
	if err != nil {
		return Delta{}, err
	}
	return m.ApplyPrecomputed(aff, updates), nil
}

// ApplyPrecomputed cascades a batch whose structural and matrix effects
// were already applied to the shared DynMatrix (aff is the AFF1 set its
// Apply returned). This is how several matchers share one DynMatrix: one
// party applies the updates, every matcher absorbs the same AFF1. The
// engine layer drives its watchers through this.
func (m *Matcher) ApplyPrecomputed(aff []Pair, updates []Update) Delta {
	delta := Delta{Aff1: len(aff)}

	// Cyclic patterns: additions need a global check (Lemma 4.4 is
	// DAG-only), so any distance decrease or candidacy gain triggers the
	// batch fallback, still reusing the incrementally-updated matrix.
	if !m.isDAG && m.needsFallback(aff, updates) {
		before := m.Relation()
		m.rebuild()
		delta.Recomputed = true
		m.diffInto(before, &delta)
		delta.Aff2 = len(delta.Added) + len(delta.Removed)
		return delta
	}

	// Counter deltas from AFF1 threshold crossings.
	for _, pr := range aff {
		for eid := 0; eid < m.p.EdgeCount(); eid++ {
			e := m.p.EdgeAt(eid)
			x, z := int(pr.Src), int(pr.Dst)
			if !m.inCand[e.From][x] || !m.inMat[e.To][z] {
				continue
			}
			was, now := wasWithinBound(pr.Old, e), nowWithinBound(pr.New, e)
			switch {
			case was && !now:
				m.cnt[eid][x]--
				if m.cnt[eid][x] == 0 && m.inMat[e.From][x] {
					m.removeQ = append(m.removeQ, MatchPair{int32(e.From), int32(x)})
				}
			case !was && now:
				m.cnt[eid][x]++
				if !m.inMat[e.From][x] {
					m.addQ = append(m.addQ, MatchPair{int32(e.From), int32(x)})
				}
			}
		}
	}

	// Candidacy transitions from out-degree changes.
	m.applyDegreeTransitions(updates)

	m.drainRemovals(&delta.Removed)
	m.drainAdditions(&delta.Added, &delta.Removed)
	cancelNetNoops(&delta)
	delta.Aff2 = len(delta.Added) + len(delta.Removed)
	return delta
}

// cancelNetNoops drops pairs that were removed and re-added within one
// batch (the addition cascade can restore a pair whose support merely
// moved); Delta reports net changes only.
func cancelNetNoops(d *Delta) {
	if len(d.Added) == 0 || len(d.Removed) == 0 {
		return
	}
	added := make(map[MatchPair]struct{}, len(d.Added))
	for _, p := range d.Added {
		added[p] = struct{}{}
	}
	both := map[MatchPair]struct{}{}
	keepRemoved := d.Removed[:0]
	for _, p := range d.Removed {
		if _, ok := added[p]; ok {
			both[p] = struct{}{}
			continue
		}
		keepRemoved = append(keepRemoved, p)
	}
	d.Removed = keepRemoved
	if len(both) == 0 {
		return
	}
	keepAdded := d.Added[:0]
	for _, p := range d.Added {
		if _, ok := both[p]; ok {
			continue
		}
		keepAdded = append(keepAdded, p)
	}
	d.Added = keepAdded
}

// needsFallback reports whether the batch can add pairs, which a cyclic
// pattern cannot absorb incrementally.
func (m *Matcher) needsFallback(aff []Pair, updates []Update) bool {
	for _, pr := range aff {
		if decreased(pr) {
			return true
		}
	}
	for _, up := range updates {
		if up.Insert && m.dm.Graph().OutDegree(up.U) == 1 {
			return true // out-degree 0 -> 1: candidacy may be gained
		}
	}
	return false
}

func decreased(p Pair) bool {
	if p.Old < 0 {
		return p.New >= 0
	}
	return p.New >= 0 && p.New < p.Old
}

// applyDegreeTransitions adjusts candidacy when a node's out-degree
// crosses zero (Match line 5's side condition).
func (m *Matcher) applyDegreeTransitions(updates []Update) {
	g := m.dm.Graph()
	seen := map[int]struct{}{}
	for _, up := range updates {
		x := up.U
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		if g.OutDegree(x) == 0 {
			// Lost its last out-edge: drop candidacy wherever required.
			for u := 0; u < m.p.N(); u++ {
				if m.needsOut[u] && m.inCand[u][x] {
					m.inCand[u][x] = false
					if m.inMat[u][x] {
						m.removeQ = append(m.removeQ, MatchPair{int32(u), int32(x)})
					}
				}
			}
		} else {
			// Has out-edges: (re)gain candidacy where the predicate holds.
			for u := 0; u < m.p.N(); u++ {
				if !m.predOK[u][x] || m.inCand[u][x] {
					continue
				}
				m.inCand[u][x] = true
				m.recountNode(u, x)
				if m.eligible(u, x) {
					m.addQ = append(m.addQ, MatchPair{int32(u), int32(x)})
				}
			}
		}
	}
}

// recountNode refreshes every out-edge counter of candidate (u, x) from
// current distances and mats.
func (m *Matcher) recountNode(u, x int) {
	for _, eid := range m.p.Out(u) {
		e := m.p.EdgeAt(int(eid))
		c := int32(0)
		for z, in := range m.inMat[e.To] {
			if in && m.withinBound(x, z, e) {
				c++
			}
		}
		m.cnt[eid][x] = c
	}
}

// eligible reports whether candidate (u, x) currently satisfies every
// out-edge (all counters positive).
func (m *Matcher) eligible(u, x int) bool {
	if !m.inCand[u][x] || m.inMat[u][x] {
		return false
	}
	for _, eid := range m.p.Out(u) {
		if m.cnt[eid][x] == 0 {
			return false
		}
	}
	return true
}

// countersAlive reports whether every out-edge counter of (u, x) is
// positive, i.e. the pair currently has full support.
func (m *Matcher) countersAlive(u, x int) bool {
	for _, eid := range m.p.Out(u) {
		if m.cnt[eid][x] == 0 {
			return false
		}
	}
	return true
}

// drainRemovals cascades the removal queue (Match⁻ lines 6–12), appending
// removed pairs to out. A queued removal may be stale: within one batch a
// counter can hit zero on a distance increase and recover on a later
// distance decrease, so support is re-validated at pop time — popping
// blindly would evict a live pair that nothing re-adds.
func (m *Matcher) drainRemovals(out *[]MatchPair) {
	for len(m.removeQ) > 0 {
		it := m.removeQ[len(m.removeQ)-1]
		m.removeQ = m.removeQ[:len(m.removeQ)-1]
		u, x := int(it.U), int(it.X)
		if !m.inMat[u][x] {
			continue
		}
		if m.inCand[u][x] && m.countersAlive(u, x) {
			continue // stale: the pair regained support before the pop
		}
		m.inMat[u][x] = false
		m.matSize[u]--
		*out = append(*out, it)
		for _, eid := range m.p.In(u) {
			e := m.p.EdgeAt(int(eid))
			c := m.cnt[eid]
			for xp := 0; xp < len(m.inCand[e.From]); xp++ {
				if !m.inCand[e.From][xp] || !m.withinBound(xp, x, e) {
					continue
				}
				c[xp]--
				if c[xp] == 0 && m.inMat[e.From][xp] {
					m.removeQ = append(m.removeQ, MatchPair{int32(e.From), int32(xp)})
				}
			}
		}
	}
}

// drainAdditions cascades the addition queue (Match⁺ lines 7–15). An
// addition can never zero a counter, so removals and additions commute;
// removed is re-drained only because a pair popped here may have been
// re-removed while queued.
func (m *Matcher) drainAdditions(added *[]MatchPair, removed *[]MatchPair) {
	for len(m.addQ) > 0 {
		it := m.addQ[len(m.addQ)-1]
		m.addQ = m.addQ[:len(m.addQ)-1]
		u, x := int(it.U), int(it.X)
		if !m.eligible(u, x) {
			continue
		}
		m.inMat[u][x] = true
		m.matSize[u]++
		*added = append(*added, it)
		for _, eid := range m.p.In(u) {
			e := m.p.EdgeAt(int(eid))
			c := m.cnt[eid]
			for xp := 0; xp < len(m.inCand[e.From]); xp++ {
				if !m.inCand[e.From][xp] || !m.withinBound(xp, x, e) {
					continue
				}
				c[xp]++
				if !m.inMat[e.From][xp] && m.eligible(e.From, xp) {
					m.addQ = append(m.addQ, MatchPair{int32(e.From), int32(xp)})
				}
			}
		}
	}
}

// diffInto records the pairwise difference between a previous relation
// snapshot and the current state (used by the fallback path).
func (m *Matcher) diffInto(before [][]int32, delta *Delta) {
	for u := range before {
		old := make(map[int32]bool, len(before[u]))
		for _, x := range before[u] {
			old[x] = true
		}
		for x, in := range m.inMat[u] {
			if in && !old[int32(x)] {
				delta.Added = append(delta.Added, MatchPair{int32(u), int32(x)})
			}
			if !in && old[int32(x)] {
				delta.Removed = append(delta.Removed, MatchPair{int32(u), int32(x)})
			}
		}
	}
}

// CheckInvariants verifies internal consistency (counter exactness and
// candidacy conditions); tests call it after update batches.
func (m *Matcher) CheckInvariants() error {
	g := m.dm.Graph()
	for u := 0; u < m.p.N(); u++ {
		for x := 0; x < g.N(); x++ {
			wantCand := m.predOK[u][x] && (!m.needsOut[u] || g.OutDegree(x) > 0)
			if m.inCand[u][x] != wantCand {
				return fmt.Errorf("candidacy (%d,%d): got %v want %v", u, x, m.inCand[u][x], wantCand)
			}
			if m.inMat[u][x] && !m.inCand[u][x] {
				return fmt.Errorf("match outside candidacy (%d,%d)", u, x)
			}
		}
	}
	for eid := 0; eid < m.p.EdgeCount(); eid++ {
		e := m.p.EdgeAt(eid)
		for x := 0; x < g.N(); x++ {
			if !m.inCand[e.From][x] {
				continue
			}
			want := int32(0)
			for z := 0; z < g.N(); z++ {
				if m.inMat[e.To][z] && m.withinBound(x, z, e) {
					want++
				}
			}
			if m.cnt[eid][x] != want {
				return fmt.Errorf("counter edge %d node %d: got %d want %d", eid, x, m.cnt[eid][x], want)
			}
		}
	}
	return nil
}
