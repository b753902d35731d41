// Package pattern implements the pattern graphs P = (Vp, Ep, fv, fe) of
// the paper (§2.1): nodes carry predicates — conjunctions of atomic
// formulas "A op a" — and edges carry a bound, either a positive integer k
// ("within k hops") or Unbounded ("*", any positive number of hops).
// Edges may additionally demand a relationship color (the §6 extension).
package pattern

import (
	"fmt"
	"sort"
	"strings"

	"gpm/internal/value"
)

// Unbounded is the edge bound written "*": connectivity by a nonempty path
// of any length.
const Unbounded = -1

// Atom is one atomic formula "Attr Op Val" of a predicate.
type Atom struct {
	Attr string
	Op   value.Op
	Val  value.Value
}

// String renders the atom in its surface syntax.
func (a Atom) String() string {
	return fmt.Sprintf("%s %s %s", a.Attr, a.Op, a.Val)
}

// Eval reports whether the attribute tuple satisfies the atom: the
// attribute must be present and compare true (paper §2.2 condition 1).
func (a Atom) Eval(t value.Tuple) bool {
	v, ok := t[a.Attr]
	if !ok {
		return false
	}
	return a.Op.Apply(v, a.Val)
}

// Predicate is the conjunction fv(u). The empty predicate is true
// everywhere (a wildcard node).
type Predicate []Atom

// Label returns a predicate matching nodes whose "label" attribute equals
// name — the traditional labeled-pattern special case.
func Label(name string) Predicate {
	return Predicate{{Attr: "label", Op: value.OpEQ, Val: value.Str(name)}}
}

// Match reports whether the tuple satisfies every atom.
func (p Predicate) Match(t value.Tuple) bool {
	for _, a := range p {
		if !a.Eval(t) {
			return false
		}
	}
	return true
}

// String renders the predicate as "a1 && a2 && ...", or "*" when empty.
func (p Predicate) String() string {
	if len(p) == 0 {
		return "*"
	}
	parts := make([]string, len(p))
	for i, a := range p {
		parts[i] = a.String()
	}
	return strings.Join(parts, " && ")
}

// MaxRangeBound is the largest finite upper bound permitted on a ranged
// edge: a ranged witness sweep runs one level per hop, so this caps it
// at 63 levels.
const MaxRangeBound = 63

// Edge is a pattern edge with its bound fe and optional color. MinBound
// implements the paper's §6 "ranges on hops" extension: when positive,
// the edge demands a witness *walk* of length in [MinBound, Bound]
// (Bound must then be finite and at most MaxRangeBound). MinBound 0 is
// the plain paper semantics: any nonempty path of length <= Bound.
type Edge struct {
	From, To int
	Bound    int // >= 1, or Unbounded
	MinBound int // 0 (none) or >= 2, requires finite Bound
	Color    string
}

// Ranged reports whether the edge carries a lower hop bound.
func (e Edge) Ranged() bool { return e.MinBound > 0 }

// String renders the edge as "from -> to [bound]" or "[lo..hi]".
func (e Edge) String() string {
	b := "*"
	if e.Bound != Unbounded {
		b = fmt.Sprintf("%d", e.Bound)
	}
	if e.Ranged() {
		b = fmt.Sprintf("%d..%s", e.MinBound, b)
	}
	if e.Color != "" {
		return fmt.Sprintf("%d->%d[%s,%s]", e.From, e.To, b, e.Color)
	}
	return fmt.Sprintf("%d->%d[%s]", e.From, e.To, b)
}

// Pattern is a pattern graph. Nodes are dense ids 0..N()-1; edges are
// identified by dense indices 0..EdgeCount()-1 so algorithms can attach
// per-edge state in flat slices.
type Pattern struct {
	preds []Predicate
	edges []Edge
	out   [][]int32 // edge ids leaving each node
	in    [][]int32 // edge ids entering each node
	dup   map[uint64]struct{}
}

// New returns an empty pattern.
func New() *Pattern {
	return &Pattern{dup: make(map[uint64]struct{})}
}

// AddNode appends a node with predicate p and returns its id.
func (pt *Pattern) AddNode(p Predicate) int {
	pt.preds = append(pt.preds, p)
	pt.out = append(pt.out, nil)
	pt.in = append(pt.in, nil)
	return len(pt.preds) - 1
}

// AddEdge inserts a bounded edge and returns its edge id. bound must be a
// positive hop count or Unbounded.
func (pt *Pattern) AddEdge(from, to, bound int) (int, error) {
	return pt.AddColoredEdge(from, to, bound, "")
}

// AddColoredEdge is AddEdge with a required relationship color.
func (pt *Pattern) AddColoredEdge(from, to, bound int, color string) (int, error) {
	return pt.addEdge(Edge{From: from, To: to, Bound: bound, Color: color})
}

// AddRangeEdge inserts an edge demanding a witness walk of length within
// [lo, hi] — the §6 "ranges on hops" extension. lo must be at least 2
// (lo <= 1 is the plain semantics: use AddEdge) and hi finite, between lo
// and MaxRangeBound.
func (pt *Pattern) AddRangeEdge(from, to, lo, hi int, color string) (int, error) {
	if lo < 2 {
		return 0, fmt.Errorf("pattern: range edge (%d,%d) lower bound %d must be >= 2 (use AddEdge for plain bounds)", from, to, lo)
	}
	if hi == Unbounded || hi < lo || hi > MaxRangeBound {
		return 0, fmt.Errorf("pattern: range edge (%d,%d) upper bound must be finite, within [%d,%d]", from, to, lo, MaxRangeBound)
	}
	return pt.addEdge(Edge{From: from, To: to, Bound: hi, MinBound: lo, Color: color})
}

func (pt *Pattern) addEdge(e Edge) (int, error) {
	if e.From < 0 || e.From >= len(pt.preds) || e.To < 0 || e.To >= len(pt.preds) {
		return 0, fmt.Errorf("pattern: edge (%d,%d) out of range [0,%d)", e.From, e.To, len(pt.preds))
	}
	if e.Bound != Unbounded && e.Bound < 1 {
		return 0, fmt.Errorf("pattern: edge (%d,%d) bound %d must be >= 1 or Unbounded", e.From, e.To, e.Bound)
	}
	k := uint64(uint32(e.From))<<32 | uint64(uint32(e.To))
	if _, ok := pt.dup[k]; ok {
		return 0, fmt.Errorf("pattern: duplicate edge (%d,%d)", e.From, e.To)
	}
	pt.dup[k] = struct{}{}
	id := len(pt.edges)
	pt.edges = append(pt.edges, e)
	pt.out[e.From] = append(pt.out[e.From], int32(id))
	pt.in[e.To] = append(pt.in[e.To], int32(id))
	return id, nil
}

// Ranged reports whether any edge carries a lower hop bound.
func (pt *Pattern) Ranged() bool {
	for _, e := range pt.edges {
		if e.Ranged() {
			return true
		}
	}
	return false
}

// MustAddEdge is AddEdge that panics on error, for fixtures and tests.
func (pt *Pattern) MustAddEdge(from, to, bound int) int {
	id, err := pt.AddEdge(from, to, bound)
	if err != nil {
		panic(err)
	}
	return id
}

// N returns the number of pattern nodes.
func (pt *Pattern) N() int { return len(pt.preds) }

// EdgeCount returns the number of pattern edges.
func (pt *Pattern) EdgeCount() int { return len(pt.edges) }

// Pred returns the predicate of node u.
func (pt *Pattern) Pred(u int) Predicate { return pt.preds[u] }

// SetPred replaces the predicate of node u; loaders use it to fill in
// predicates after the node set is allocated.
func (pt *Pattern) SetPred(u int, p Predicate) { pt.preds[u] = p }

// EdgeAt returns edge data by edge id.
func (pt *Pattern) EdgeAt(id int) Edge { return pt.edges[id] }

// Out returns the ids of edges leaving u (graph-owned slice).
func (pt *Pattern) Out(u int) []int32 { return pt.out[u] }

// In returns the ids of edges entering u (graph-owned slice).
func (pt *Pattern) In(u int) []int32 { return pt.in[u] }

// OutDegree returns the number of edges leaving u.
func (pt *Pattern) OutDegree(u int) int { return len(pt.out[u]) }

// Edges returns a copy of the edge list.
func (pt *Pattern) Edges() []Edge { return append([]Edge(nil), pt.edges...) }

// HasEdge reports whether the pattern contains edge (from, to).
func (pt *Pattern) HasEdge(from, to int) bool {
	_, ok := pt.dup[uint64(uint32(from))<<32|uint64(uint32(to))]
	return ok
}

// Colored reports whether any edge demands a color.
func (pt *Pattern) Colored() bool {
	for _, e := range pt.edges {
		if e.Color != "" {
			return true
		}
	}
	return false
}

// MaxBound returns the largest finite bound, and whether any edge is
// unbounded.
func (pt *Pattern) MaxBound() (max int, hasUnbounded bool) {
	for _, e := range pt.edges {
		if e.Bound == Unbounded {
			hasUnbounded = true
		} else if e.Bound > max {
			max = e.Bound
		}
	}
	return max, hasUnbounded
}

// AllBoundsOne reports whether every edge has bound exactly 1, i.e. the
// pattern lies in the plain graph-simulation fragment (§2.2 remark 2).
func (pt *Pattern) AllBoundsOne() bool {
	for _, e := range pt.edges {
		if e.Bound != 1 {
			return false
		}
	}
	return true
}

// IsDAG reports whether the pattern is acyclic — the class for which the
// incremental algorithms carry the §4 performance guarantee.
func (pt *Pattern) IsDAG() bool {
	_, ok := pt.TopoOrder()
	return ok
}

// TopoOrder returns a topological order of the pattern nodes (Kahn), with
// ok=false when the pattern is cyclic.
func (pt *Pattern) TopoOrder() ([]int, bool) {
	n := pt.N()
	indeg := make([]int, n)
	for _, e := range pt.edges {
		indeg[e.To]++
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, eid := range pt.out[v] {
			w := pt.edges[eid].To
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// Validate checks structural consistency; loaders call it on untrusted
// input.
func (pt *Pattern) Validate() error {
	if pt.N() == 0 {
		return fmt.Errorf("pattern: no nodes")
	}
	for i, e := range pt.edges {
		if e.From < 0 || e.From >= pt.N() || e.To < 0 || e.To >= pt.N() {
			return fmt.Errorf("pattern: edge %d (%d,%d) out of range", i, e.From, e.To)
		}
		if e.Bound != Unbounded && e.Bound < 1 {
			return fmt.Errorf("pattern: edge %d has bound %d", i, e.Bound)
		}
		if e.Ranged() && (e.MinBound < 2 || e.Bound == Unbounded || e.Bound < e.MinBound || e.Bound > MaxRangeBound) {
			return fmt.Errorf("pattern: edge %d has invalid range %d..%d", i, e.MinBound, e.Bound)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (pt *Pattern) Clone() *Pattern {
	c := New()
	for _, p := range pt.preds {
		c.AddNode(append(Predicate(nil), p...))
	}
	for _, e := range pt.edges {
		if _, err := c.addEdge(e); err != nil {
			panic(err) // cannot happen: source pattern was consistent
		}
	}
	return c
}

// String renders a compact multi-line description.
func (pt *Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern{nodes: %d, edges: %d}\n", pt.N(), pt.EdgeCount())
	for u := 0; u < pt.N(); u++ {
		fmt.Fprintf(&b, "  %d: %s\n", u, pt.preds[u])
	}
	es := pt.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	for _, e := range es {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}
