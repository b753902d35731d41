// Package subiso implements the subgraph-isomorphism baselines the paper
// evaluates against (Exp-1): VF2 (Cordella et al.) and an Ullmann-style
// backtracking enumerator (SubIso). Both find injective mappings of the
// pattern's nodes to data nodes such that every pattern edge maps onto a
// data edge (edge-to-edge, the traditional semantics — bounds are treated
// as requiring a direct edge, matching the paper's "even when the bound k
// was set to 1 to favor SubIso").
//
// Enumeration is exponential in the worst case, so both take budgets: a
// maximum number of embeddings and a step limit.
//
// The searcher also executes plans produced by internal/plan: an explicit
// matching order, symmetry-breaking restriction pairs (each automorphism
// class of embeddings is visited once, through its order-lexicographic
// minimum), and a counting mode that switches to inclusion-exclusion over
// the independent tail of the matching order instead of materialising
// embeddings.
package subiso

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"gpm/internal/cancel"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Algo selects the enumeration algorithm when callers go through the
// algorithm-agnostic Enumerate entry point (the Engine API does).
type Algo int

const (
	// AlgoVF2 is VF2-style search (the default).
	AlgoVF2 Algo = iota
	// AlgoUllmann is Ullmann-style search with candidate refinement.
	AlgoUllmann
)

// Options bound the enumeration and carry an optional execution plan.
type Options struct {
	// MaxEmbeddings stops the search after this many embeddings
	// (0 = 1<<31-1). When the search space holds exactly this many, the
	// searcher probes on (without storing) until it either finds one
	// more — truncation, Complete=false — or exhausts the tree, in
	// which case the enumeration is Complete despite hitting the cap.
	MaxEmbeddings int
	MaxSteps      int64 // stop after this many search-tree nodes (0 = no limit)
	Algo          Algo  // algorithm used by Enumerate (VF2/Ullmann ignore it)

	// NoPlan asks Engine.Enumerate / Engine.CountEmbeddings to skip the
	// query planner and run the fixed connectivity-aware order with no
	// symmetry breaking. The searcher itself ignores it.
	NoPlan bool

	// Order overrides the matching order with an explicit permutation of
	// the pattern nodes (position -> pattern node). Nil selects the
	// built-in connectivity-aware order.
	Order []int

	// Restrictions are symmetry-breaking pairs (a, b): every reported
	// embedding f must satisfy f(a) < f(b). Each pair must have a before
	// b in the matching order. With the pairs internal/plan derives from
	// the pattern's automorphism group, the search visits exactly one
	// member of each automorphism class of embeddings.
	Restrictions [][2]int32

	// ExpandPerEmbedding is how many full embeddings each found
	// embedding represents (|Aut| under planner restrictions, default
	// 1). It scales Count and the MaxEmbeddings budget; the searcher
	// does not materialise the expansion (see plan.Expand).
	ExpandPerEmbedding int

	// CountOnly counts embeddings without materialising them:
	// Embeddings stays nil and Count carries the total. MaxEmbeddings
	// is ignored; MaxSteps and cancellation still bound the search.
	CountOnly bool
}

func (o Options) maxEmb() int {
	if o.MaxEmbeddings <= 0 {
		return 1<<31 - 1
	}
	return o.MaxEmbeddings
}

func (o Options) factor() int64 {
	if o.ExpandPerEmbedding <= 1 {
		return 1
	}
	return int64(o.ExpandPerEmbedding)
}

// Enumeration is the outcome of a subgraph-isomorphism search.
type Enumeration struct {
	Embeddings [][]int32 // each: pattern node index -> data node
	Steps      int64     // search-tree nodes explored
	Complete   bool      // false when a budget was exhausted

	// Count is the number of embeddings the search accounts for:
	// len(Embeddings) × ExpandPerEmbedding, or the inclusion-exclusion
	// total in CountOnly mode.
	Count int64
}

// PairsPerNode returns, per pattern node, the sorted distinct data nodes
// appearing in any embedding — the "matches per pattern node" metric of
// Exp-1.
func (e *Enumeration) PairsPerNode(np int) [][]int32 {
	out := make([][]int32, np)
	col := make([]int32, 0, len(e.Embeddings))
	for u := 0; u < np; u++ {
		col = col[:0]
		for _, emb := range e.Embeddings {
			col = append(col, emb[u])
		}
		slices.Sort(col)
		uniq := slices.Compact(col)
		if len(uniq) > 0 {
			out[u] = append([]int32(nil), uniq...)
		}
	}
	return out
}

// dataGraph is the read-only adjacency view the searcher runs over: the
// live mutable Graph (legacy entry points) or an immutable Frozen snapshot
// (the engine path, which must not pin the engine lock for the whole
// exponential search).
type dataGraph interface {
	N() int
	Attr(v int) graph.Attrs
	Out(u int) []int32
	In(v int) []int32
	OutDegree(u int) int
	InDegree(v int) int
	// hasColoredEdge reports an edge u->v whose color matches (any color
	// when color == "").
	hasColoredEdge(u, v int, color string) bool
}

type liveData struct{ g *graph.Graph }

func (d liveData) N() int                 { return d.g.N() }
func (d liveData) Attr(v int) graph.Attrs { return d.g.Attr(v) }
func (d liveData) Out(u int) []int32      { return d.g.Out(u) }
func (d liveData) In(v int) []int32       { return d.g.In(v) }
func (d liveData) OutDegree(u int) int    { return d.g.OutDegree(u) }
func (d liveData) InDegree(v int) int     { return d.g.InDegree(v) }

func (d liveData) hasColoredEdge(u, v int, color string) bool {
	if !d.g.HasEdge(u, v) {
		return false
	}
	if color == "" {
		return true
	}
	c, _ := d.g.Color(u, v)
	return c == color
}

type frozenData struct{ f *graph.Frozen }

func (d frozenData) N() int                 { return d.f.N() }
func (d frozenData) Attr(v int) graph.Attrs { return d.f.Attr(v) }
func (d frozenData) Out(u int) []int32      { return d.f.Out(u) }
func (d frozenData) In(v int) []int32       { return d.f.In(v) }
func (d frozenData) OutDegree(u int) int    { return d.f.OutDegree(u) }
func (d frozenData) InDegree(v int) int     { return d.f.InDegree(v) }

func (d frozenData) hasColoredEdge(u, v int, color string) bool {
	// Frozen keeps no membership hash; scan the shorter adjacency side.
	found := false
	if out, in := d.f.Out(u), d.f.In(v); len(out) <= len(in) {
		for _, w := range out {
			if int(w) == v {
				found = true
				break
			}
		}
	} else {
		for _, w := range in {
			if int(w) == u {
				found = true
				break
			}
		}
	}
	if !found {
		return false
	}
	if color == "" {
		return true
	}
	return d.f.Color(u, v) == color
}

// VF2 enumerates subgraph monomorphisms of p into g with VF2-style
// feasibility pruning and connectivity-aware candidate ordering.
func VF2(p *pattern.Pattern, g *graph.Graph, opts Options) *Enumeration {
	enum, _ := VF2Context(context.Background(), p, g, opts)
	if enum == nil {
		// Validation failure in the error-dropping legacy wrapper: an
		// empty incomplete enumeration, never nil.
		enum = &Enumeration{}
	}
	return enum
}

// VF2Context is VF2 with cancellation: ctx is polled as the search tree
// grows, and a cancelled context aborts with ctx.Err() (the partial
// enumeration is returned alongside, with Complete == false).
func VF2Context(ctx context.Context, p *pattern.Pattern, g *graph.Graph, opts Options) (*Enumeration, error) {
	return enumerate(ctx, p, liveData{g}, opts, false)
}

// Ullmann enumerates the same embeddings with Ullmann's candidate-matrix
// refinement at each level — the paper's "SubIso".
func Ullmann(p *pattern.Pattern, g *graph.Graph, opts Options) *Enumeration {
	enum, _ := UllmannContext(context.Background(), p, g, opts)
	if enum == nil {
		enum = &Enumeration{}
	}
	return enum
}

// UllmannContext is Ullmann with cancellation, mirroring VF2Context.
func UllmannContext(ctx context.Context, p *pattern.Pattern, g *graph.Graph, opts Options) (*Enumeration, error) {
	return enumerate(ctx, p, liveData{g}, opts, true)
}

// EnumerateFrozen runs the search over an immutable CSR snapshot — the
// engine path, where the search must not touch the mutable graph so that
// updates can proceed concurrently.
func EnumerateFrozen(ctx context.Context, p *pattern.Pattern, f *graph.Frozen, opts Options) (*Enumeration, error) {
	return enumerate(ctx, p, frozenData{f}, opts, opts.Algo == AlgoUllmann)
}

func enumerate(ctx context.Context, p *pattern.Pattern, d dataGraph, opts Options, refine bool) (*Enumeration, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &searcher{p: p, g: d, opts: opts, enum: &Enumeration{Complete: true}, refine: refine, poll: cancel.Every(ctx, 1024)}
	if err := s.resolvePlan(); err != nil {
		return nil, err
	}
	if !s.prepare() {
		return s.enum, nil
	}
	s.setupIE()
	s.run()
	return s.enum, s.err
}

// run allocates the shared search state and starts the recursion.
func (s *searcher) run() {
	s.assign = make([]int32, s.p.N())
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.used = make([]bool, s.g.N())
	s.recurse(0)
}

type searcher struct {
	p      *pattern.Pattern
	g      dataGraph
	opts   Options
	enum   *Enumeration
	cand   [][]int32 // per pattern node: predicate-compatible data nodes, ascending
	inCand [][]bool
	order  []int
	assign []int32
	used   []bool
	minGT  [][]int32 // per pattern node: restriction partners it must exceed
	factor int64     // embeddings represented by each found embedding
	refine bool
	halted bool

	// probing is set once the embedding budget is reached: the search
	// continues without storing, only to learn whether the tree holds
	// another embedding (it does -> truncated; it does not -> the cap
	// was exactly the embedding count and the enumeration is complete).
	probing bool

	// Inclusion-exclusion counting over the independent tail of the
	// matching order (CountOnly mode): at depth ieDepth the remaining
	// pattern nodes iePos are pairwise non-adjacent and restriction-free
	// among themselves, so the number of injective completions is a
	// 2^k-term inclusion-exclusion over their candidate sets instead of
	// a product-sized sub-search.
	ieDepth int
	iePos   []int
	ieSets  [][]int32
	ieInter [][]int32

	poll cancel.Poller
	err  error // ctx.Err() once cancelled
}

// resolvePlan validates and installs the plan options: matching order and
// restriction pairs.
func (s *searcher) resolvePlan() error {
	np := s.p.N()
	if s.opts.Order != nil {
		if len(s.opts.Order) != np {
			return fmt.Errorf("subiso: plan order has %d positions for %d pattern nodes", len(s.opts.Order), np)
		}
		seen := make([]bool, np)
		for _, u := range s.opts.Order {
			if u < 0 || u >= np || seen[u] {
				return fmt.Errorf("subiso: plan order %v is not a permutation of the pattern nodes", s.opts.Order)
			}
			seen[u] = true
		}
		s.order = s.opts.Order
	} else {
		s.order = vf2Order(s.p)
	}
	if len(s.opts.Restrictions) > 0 {
		pos := make([]int, np)
		for i, u := range s.order {
			pos[u] = i
		}
		s.minGT = make([][]int32, np)
		for _, r := range s.opts.Restrictions {
			a, b := r[0], r[1]
			if a < 0 || b < 0 || int(a) >= np || int(b) >= np || a == b {
				return fmt.Errorf("subiso: restriction (%d,%d) out of range", a, b)
			}
			if pos[a] >= pos[b] {
				return fmt.Errorf("subiso: restriction (%d,%d) does not respect the matching order", a, b)
			}
			s.minGT[b] = append(s.minGT[b], a)
		}
	}
	s.factor = s.opts.factor()
	return nil
}

// prepare computes per-node candidate sets; false when some node has no
// candidates at all.
func (s *searcher) prepare() bool {
	np, n := s.p.N(), s.g.N()
	s.cand = make([][]int32, np)
	s.inCand = make([][]bool, np)
	for u := 0; u < np; u++ {
		s.inCand[u] = make([]bool, n)
		pred := s.p.Pred(u)
		for x := 0; x < n; x++ {
			if s.p.OutDegree(u) > 0 && s.g.OutDegree(x) == 0 {
				continue
			}
			if len(s.p.In(u)) > 0 && s.g.InDegree(x) == 0 {
				continue
			}
			if pred.Match(s.g.Attr(x)) {
				s.cand[u] = append(s.cand[u], int32(x))
				s.inCand[u][x] = true
			}
		}
		if len(s.cand[u]) == 0 {
			return false
		}
	}
	return true
}

// maxIESuffix caps the inclusion-exclusion tail: the term count is
// exponential in the tail length (2^k intersections, Bell(k) partitions).
const maxIESuffix = 5

// setupIE finds the longest eligible tail of the matching order for
// inclusion-exclusion counting: pattern nodes pairwise non-adjacent and
// with no restriction pair among themselves (restriction pairs from the
// prefix become candidate lower bounds and stay exact).
func (s *searcher) setupIE() {
	s.ieDepth = -1
	if !s.opts.CountOnly {
		return
	}
	np := s.p.N()
	restricted := func(a, b int) bool {
		for _, w := range s.minGT[b] {
			if int(w) == a {
				return true
			}
		}
		return false
	}
	suf := 0
	for i := np - 1; i >= 0 && suf < maxIESuffix; i-- {
		u := s.order[i]
		ok := true
		for j := i + 1; j < np; j++ {
			v := s.order[j]
			if s.p.HasEdge(u, v) || s.p.HasEdge(v, u) {
				ok = false
				break
			}
			if s.minGT != nil && (restricted(u, v) || restricted(v, u)) {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		suf++
	}
	if suf < 2 {
		return
	}
	s.ieDepth = np - suf
	s.iePos = append([]int(nil), s.order[s.ieDepth:]...)
	s.ieSets = make([][]int32, suf)
	s.ieInter = make([][]int32, 1<<suf)
}

// vf2Order sorts pattern nodes so each (after the first) is adjacent to
// an earlier one when possible, smallest candidate set first.
func vf2Order(p *pattern.Pattern) []int {
	np := p.N()
	picked := make([]bool, np)
	order := make([]int, 0, np)
	adjToPicked := func(u int) bool {
		for _, eid := range p.Out(u) {
			if picked[p.EdgeAt(int(eid)).To] {
				return true
			}
		}
		for _, eid := range p.In(u) {
			if picked[p.EdgeAt(int(eid)).From] {
				return true
			}
		}
		return false
	}
	for len(order) < np {
		best := -1
		bestDeg := -1
		for u := 0; u < np; u++ {
			if picked[u] {
				continue
			}
			deg := p.OutDegree(u) + len(p.In(u))
			connected := len(order) == 0 || adjToPicked(u)
			if connected && deg > bestDeg {
				best, bestDeg = u, deg
			}
		}
		if best < 0 { // disconnected pattern: take any remaining node
			for u := 0; u < np; u++ {
				if !picked[u] {
					best = u
					break
				}
			}
		}
		picked[best] = true
		order = append(order, best)
	}
	return order
}

// restrictionLower returns the smallest data node the restriction pairs
// allow for pattern node u under the current partial assignment (-1 when
// unconstrained): u must map strictly above every assigned partner.
func (s *searcher) restrictionLower(u int) int32 {
	lower := int32(-1)
	if s.minGT == nil {
		return lower
	}
	for _, w := range s.minGT[u] {
		if v := s.assign[w]; v > lower {
			lower = v
		}
	}
	return lower
}

func (s *searcher) recurse(depth int) {
	if s.halted {
		return
	}
	s.enum.Steps++
	if err := s.poll.Err(); err != nil {
		s.err = err
		s.halted = true
		s.enum.Complete = false
		return
	}
	if s.opts.MaxSteps > 0 && s.enum.Steps > s.opts.MaxSteps {
		s.halted = true
		s.enum.Complete = false
		return
	}
	if depth == s.ieDepth {
		s.enum.Count += s.factor * s.ieCount()
		return
	}
	if depth == s.p.N() {
		if s.probing {
			// The budget was already reached; finding one more
			// embedding proves the enumeration really is truncated.
			s.enum.Complete = false
			s.halted = true
			return
		}
		if s.opts.CountOnly {
			s.enum.Count += s.factor
			return
		}
		emb := append([]int32(nil), s.assign...)
		s.enum.Embeddings = append(s.enum.Embeddings, emb)
		s.enum.Count += s.factor
		if s.enum.Count >= int64(s.opts.maxEmb()) {
			s.probing = true
		}
		return
	}
	u := s.order[depth]
	cand := s.cand[u]
	if lower := s.restrictionLower(u); lower >= 0 {
		// cand is ascending: skip straight past the restriction bound.
		cand = cand[sort.Search(len(cand), func(i int) bool { return cand[i] > lower }):]
	}
	for _, x := range cand {
		if s.used[x] || !s.feasible(u, x) {
			continue
		}
		if s.refine && !s.lookahead(u, int(x), depth) {
			continue
		}
		s.assign[u] = x
		s.used[x] = true
		s.recurse(depth + 1)
		s.used[x] = false
		s.assign[u] = -1
		if s.halted {
			return
		}
	}
}

// ieCoef[k] = (-1)^(k-1) * (k-1)! — the weight of a size-k block in the
// set-partition expansion of the number of injective completions.
var ieCoef = [maxIESuffix + 1]int64{0, 1, -1, 2, -6, 24}

// ieCount computes, under the current partial assignment, the number of
// injective assignments of the tail pattern nodes iePos to feasible
// candidates. With S_i the feasible candidate set of tail node i, the
// count is Σ over set partitions P of the tail of
// Π_{B∈P} (-1)^(|B|-1)(|B|-1)!·|∩_{i∈B} S_i| — the in-exclusion
// optimisation of GraphPi, evaluated by a 2^k subset DP.
func (s *searcher) ieCount() int64 {
	k := len(s.iePos)
	for i, u := range s.iePos {
		set := s.ieSets[i][:0]
		cand := s.cand[u]
		if lower := s.restrictionLower(u); lower >= 0 {
			cand = cand[sort.Search(len(cand), func(t int) bool { return cand[t] > lower }):]
		}
		for _, x := range cand {
			if s.used[x] || !s.feasible(u, x) {
				continue
			}
			set = append(set, x)
		}
		s.ieSets[i] = set
		s.ieInter[1<<i] = set
	}
	// Intersection sizes for every non-empty subset of tail nodes,
	// built by peeling the lowest bit (sets are ascending).
	for m := 1; m < 1<<k; m++ {
		if m&(m-1) == 0 {
			continue
		}
		low := m & -m
		a, b := s.ieInter[low], s.ieInter[m&^low]
		inter := s.ieInter[m][:0]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				inter = append(inter, a[i])
				i++
				j++
			}
		}
		s.ieInter[m] = inter
	}
	// part[m] = injective completion count for the tail subset m:
	// partitions generated by choosing the block containing m's lowest
	// tail node.
	var part [1 << maxIESuffix]int64
	part[0] = 1
	for m := 1; m < 1<<k; m++ {
		low := m & -m
		rest := m &^ low
		var total int64
		// Blocks B ⊆ m with low ∈ B: iterate subsets t of rest, B = t|low.
		t := rest
		for {
			b := t | low
			sz := bitsOnes(b)
			total += ieCoef[sz] * int64(len(s.ieInter[b])) * part[m&^b]
			if t == 0 {
				break
			}
			t = (t - 1) & rest
		}
		part[m] = total
	}
	return part[1<<k-1]
}

func bitsOnes(m int) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// feasible checks every pattern edge between u (about to be mapped to x)
// and already-mapped nodes, including self-loop pattern edges.
func (s *searcher) feasible(u int, x int32) bool {
	for _, eid := range s.p.Out(u) {
		e := s.p.EdgeAt(int(eid))
		if e.To == u {
			if !s.g.hasColoredEdge(int(x), int(x), e.Color) {
				return false
			}
			continue
		}
		if y := s.assign[e.To]; y >= 0 && !s.g.hasColoredEdge(int(x), int(y), e.Color) {
			return false
		}
	}
	for _, eid := range s.p.In(u) {
		e := s.p.EdgeAt(int(eid))
		if e.From == u {
			continue // self loop already checked above
		}
		if y := s.assign[e.From]; y >= 0 && !s.g.hasColoredEdge(int(y), int(x), e.Color) {
			return false
		}
	}
	return true
}

// lookahead is Ullmann's refinement: every unmapped pattern neighbor of u
// must retain a compatible unused candidate adjacent to x.
func (s *searcher) lookahead(u, x, depth int) bool {
	for _, eid := range s.p.Out(u) {
		to := s.p.EdgeAt(int(eid)).To
		if s.assign[to] >= 0 {
			continue
		}
		ok := false
		for _, y := range s.g.Out(x) {
			if !s.used[y] && s.inCand[to][y] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, eid := range s.p.In(u) {
		from := s.p.EdgeAt(int(eid)).From
		if s.assign[from] >= 0 {
			continue
		}
		ok := false
		for _, y := range s.g.In(x) {
			if !s.used[y] && s.inCand[from][y] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
