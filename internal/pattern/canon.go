package pattern

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Canonical form: a deterministic serialisation of the pattern that is
// invariant under node renaming and edge insertion order, plus a 64-bit
// digest of it. It is the identity primitive for result caches and
// multi-query optimisation: two patterns with equal canonical text are
// isomorphic (same predicates, same bounded edges up to renaming), so a
// relation computed for one answers the other verbatim.
//
// The search is an exact lexicographic-minimisation over node orders,
// pruned by per-position "rows" (predicate key + edges back into the
// placed prefix). Each prefix extension keeps only the candidates whose
// row is minimal, so branching happens only on genuine ties; a budget
// bounds pathological symmetric patterns, and exceeding it returns an
// error — the pattern is then simply uncacheable, never mis-keyed.

// Canon is the canonical form of a pattern.
type Canon struct {
	// Text is canonical .pattern text: it parses back (gio.ReadPattern)
	// into a pattern isomorphic to the original, and canonicalising that
	// parse yields the same Text.
	Text string
	// Digest is the 64-bit FNV-1a hash of Text.
	Digest uint64
	// Perm is the winning node order: Perm[i] is the original node id
	// placed at canonical position i. Isomorphic spellings share Text
	// and Digest but not Perm, so a relation computed for one spelling
	// reaches another through the two orders: the row of the first's
	// node Perm[i] is the row of the second's node Perm′[i].
	Perm []int
}

const (
	// canonMaxNodes bounds the pattern size Canonical accepts; realistic
	// query patterns are far smaller, and the row comparisons are
	// quadratic in the prefix length.
	canonMaxNodes = 64
	// canonBudget caps the number of search steps. Only highly symmetric
	// patterns (every node the same predicate, regular edge structure)
	// come close; they fail canonicalisation rather than burn CPU.
	canonBudget = 1 << 16
)

// Canonical computes the canonical form. It fails on invalid patterns,
// patterns larger than canonMaxNodes nodes, and patterns whose symmetry
// exhausts the search budget.
func (pt *Pattern) Canonical() (Canon, error) {
	if err := pt.Validate(); err != nil {
		return Canon{}, err
	}
	if pt.N() > canonMaxNodes {
		return Canon{}, fmt.Errorf("pattern: %d nodes exceed the canonicalisation limit %d", pt.N(), canonMaxNodes)
	}
	cs := &canonSearch{p: pt, budget: canonBudget}
	cs.init()
	cs.dfs(0, true)
	if cs.overflow {
		return Canon{}, fmt.Errorf("pattern: canonicalisation budget exceeded (highly symmetric pattern)")
	}
	text := cs.render()
	h := fnv.New64a()
	h.Write([]byte(text))
	return Canon{Text: text, Digest: h.Sum64(), Perm: cs.bestPerm}, nil
}

// canonPredicate returns the predicate with atoms sorted by surface
// syntax and exact duplicates removed — the canonical conjunction.
func canonPredicate(p Predicate) Predicate {
	if len(p) == 0 {
		return Predicate{}
	}
	keys := make([]string, len(p))
	for i, a := range p {
		keys[i] = a.String()
	}
	idx := make([]int, len(p))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	out := make(Predicate, 0, len(p))
	last := ""
	for n, i := range idx {
		if n > 0 && keys[i] == last {
			continue
		}
		out = append(out, p[i])
		last = keys[i]
	}
	return out
}

// edgeSig is the label a pattern edge contributes to row keys: bound
// (including the range form) and color, everything but the endpoints.
func edgeSig(e Edge) string {
	return FormatEdgeBound(e) + "," + e.Color
}

type canonSearch struct {
	p        *Pattern
	predKey  []string        // canonical predicate text per node
	edge     map[[2]int]Edge // (from, to) -> edge
	perm     []int           // perm[i] = original id at canonical position i
	rows     []string        // row key per placed position
	best     []string        // minimal complete row sequence found so far
	bestPerm []int
	budget   int
	overflow bool
}

func (cs *canonSearch) init() {
	n := cs.p.N()
	cs.predKey = make([]string, n)
	for u := 0; u < n; u++ {
		cs.predKey[u] = canonPredicate(cs.p.Pred(u)).String()
	}
	cs.edge = make(map[[2]int]Edge, cs.p.EdgeCount())
	for _, e := range cs.p.Edges() {
		cs.edge[[2]int{e.From, e.To}] = e
	}
	cs.perm = make([]int, 0, n)
	cs.rows = make([]string, 0, n)
}

// rowKey serialises what placing v at the next position reveals: its
// predicate and its edges to and from the already-placed prefix. The
// complete row sequence determines the renamed pattern exactly.
func (cs *canonSearch) rowKey(v int) string {
	var b strings.Builder
	b.WriteString(cs.predKey[v])
	if e, ok := cs.edge[[2]int{v, v}]; ok {
		fmt.Fprintf(&b, "|s:%s", edgeSig(e))
	}
	for j, u := range cs.perm {
		if e, ok := cs.edge[[2]int{u, v}]; ok {
			fmt.Fprintf(&b, "|i%d:%s", j, edgeSig(e))
		}
		if e, ok := cs.edge[[2]int{v, u}]; ok {
			fmt.Fprintf(&b, "|o%d:%s", j, edgeSig(e))
		}
	}
	return b.String()
}

// dfs extends the prefix one position. tight means the prefix rows equal
// the best sequence's prefix (so worse rows prune, better rows win).
func (cs *canonSearch) dfs(depth int, tight bool) {
	if cs.overflow {
		return
	}
	n := cs.p.N()
	if depth == n {
		if cs.best == nil || (tight && less(cs.rows, cs.best)) {
			cs.best = append([]string(nil), cs.rows...)
			cs.bestPerm = append([]int(nil), cs.perm...)
		}
		return
	}
	cs.budget--
	if cs.budget < 0 {
		cs.overflow = true
		return
	}
	placed := make(map[int]bool, depth)
	for _, u := range cs.perm {
		placed[u] = true
	}
	// Min row over unplaced nodes; candidates are its witnesses.
	minRow := ""
	var cands []int
	for v := 0; v < n; v++ {
		if placed[v] {
			continue
		}
		r := cs.rowKey(v)
		switch {
		case len(cands) == 0 || r < minRow:
			minRow, cands = r, append(cands[:0], v)
		case r == minRow:
			cands = append(cands, v)
		}
	}
	if cs.best != nil && tight {
		switch {
		case minRow > cs.best[depth]:
			return // prefix already worse than best
		case minRow < cs.best[depth]:
			tight = false
			// Strictly better: the first completion below replaces best.
			cs.best = nil
		}
	}
	// Collapse tie candidates that a transposition automorphism maps onto
	// an earlier one: their subtrees are row-identical. This makes
	// patterns with duplicated nodes (k identical leaves, say) linear
	// instead of factorial.
	if len(cands) > 1 {
		kept := cands[:1]
		for _, v := range cands[1:] {
			dup := false
			for _, w := range kept {
				if cs.swappable(v, w) {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, v)
			}
		}
		cands = kept
	}
	for _, v := range cands {
		cs.perm = append(cs.perm, v)
		cs.rows = append(cs.rows, minRow)
		cs.dfs(depth+1, tight)
		cs.perm = cs.perm[:depth]
		cs.rows = cs.rows[:depth]
		if cs.overflow {
			return
		}
		// After the first completion a best exists; siblings are ties at
		// this depth, so they remain tight against it.
		tight = cs.best != nil
	}
}

// swappable reports whether exchanging v and w (fixing every other node)
// is a pattern automorphism, so their search subtrees are identical.
func (cs *canonSearch) swappable(v, w int) bool {
	if cs.predKey[v] != cs.predKey[w] {
		return false
	}
	sig := func(a, b int) (string, bool) {
		e, ok := cs.edge[[2]int{a, b}]
		if !ok {
			return "", false
		}
		return edgeSig(e), true
	}
	eq := func(a1, b1, a2, b2 int) bool {
		s1, ok1 := sig(a1, b1)
		s2, ok2 := sig(a2, b2)
		return ok1 == ok2 && s1 == s2
	}
	if !eq(v, w, w, v) || !eq(v, v, w, w) {
		return false
	}
	for x := 0; x < cs.p.N(); x++ {
		if x == v || x == w {
			continue
		}
		if !eq(v, x, w, x) || !eq(x, v, x, w) {
			return false
		}
	}
	return true
}

func less(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// render emits the canonical .pattern text for the winning order.
func (cs *canonSearch) render() string {
	n := cs.p.N()
	newID := make([]int, n)
	for pos, orig := range cs.bestPerm {
		newID[orig] = pos
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pattern %d\n", n)
	for pos, orig := range cs.bestPerm {
		fmt.Fprintf(&b, "node %d %s\n", pos, cs.predKey[orig])
	}
	es := cs.p.Edges()
	for i := range es {
		es[i].From = newID[es[i].From]
		es[i].To = newID[es[i].To]
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	for _, e := range es {
		if e.Color != "" {
			fmt.Fprintf(&b, "edge %d %d %s %s\n", e.From, e.To, FormatEdgeBound(e), e.Color)
		} else {
			fmt.Fprintf(&b, "edge %d %d %s\n", e.From, e.To, FormatEdgeBound(e))
		}
	}
	return b.String()
}
