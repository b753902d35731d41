package pattern

import "gpm/internal/value"

// Pattern containment (Mahfoud, "Revisited Containment for Graph
// Patterns"): P contains Q — written Q ⊑ P — when, over every data
// graph, Q's match relation is pointwise included in P's. For
// simulation-style semantics containment is itself a simulation check
// *between the two patterns*: compute the maximum relation R ⊆ Vq × Vp
// where (u, a) ∈ R demands
//
//   (1) pred_Q(u) ⇒ pred_P(a)          — atom-level implication, and
//   (2) for every P-edge (a, b) some Q-edge (u, v) with (v, b) ∈ R whose
//       bound/color constraints are at least as strict (edgeServes), and
//   (3) under ContainDual, symmetrically for every P-edge (c, a) some
//       Q-edge (w, u) with (w, c) ∈ R.
//
// Soundness: for any graph G and (u, a) ∈ R, the set
// T = {(a, x) : (u, a) ∈ R, x ∈ M(Q,G)(u)} satisfies P's (dual)
// simulation conditions — each Q-witness path/walk for (u, v) also
// witnesses the stricter P-edge — so T is contained in P's maximum
// relation: M(Q,G)(u) ⊆ M(P,G)(a). A cache can therefore answer Q from
// a stored answer for P by seeding Q's fixpoint with ∪_{(u,a)∈R} M(P)(a),
// and the greatest fixpoint inside that superset is exactly M(Q,G).
//
// The fixpoint mirrors internal/core's counter/worklist kernel, which
// also runs dual simulation: per-pair witness counters, kills cascade
// through a worklist. Patterns are tiny, so there is no sharding.

// ContainMode selects which edge conditions Containment enforces.
type ContainMode int

const (
	// ContainChild enforces the child condition only — sound for bounded
	// simulation (match) and plain simulation semantics.
	ContainChild ContainMode = iota
	// ContainDual additionally enforces the parent condition, as dual
	// simulation's fixpoint requires.
	ContainDual
)

// Containment computes the maximum containment witness from q's nodes to
// p's nodes. witness[u] lists, ascending, the p-nodes a with
// M(q,G)(u) ⊆ M(p,G)(a) on every graph G; ok reports whether every
// q-node is covered — the precondition for answering q from p's cached
// relation. A q-node whose predicate implies no p-node's can never be
// covered, so then Containment returns (nil, false) before it allocates
// anything: a cache tries most of its entries against patterns they do
// not contain.
func Containment(p, q *Pattern, mode ContainMode) (witness [][]int32, ok bool) {
	np, nq := p.N(), q.N()
	for u := 0; u < nq; u++ {
		a := 0
		for a < np && !predImplies(q.Pred(u), p.Pred(a)) {
			a++
		}
		if a == np {
			return nil, false
		}
	}
	rel := make([][]bool, nq)
	alive := 0
	for u := 0; u < nq; u++ {
		rel[u] = make([]bool, np)
		for a := 0; a < np; a++ {
			if predImplies(q.Pred(u), p.Pred(a)) {
				rel[u][a] = true
				alive++
			}
		}
	}

	// childCnt[e'][u]: for the p-edge e' = (a, b), how many q-edges
	// (u, v) serve e' with (v, b) still alive. Zero kills (u, a).
	childCnt := make([][]int32, p.EdgeCount())
	for id := range childCnt {
		childCnt[id] = make([]int32, nq)
	}
	var parCnt [][]int32
	if mode == ContainDual {
		parCnt = make([][]int32, p.EdgeCount())
		for id := range parCnt {
			parCnt[id] = make([]int32, nq)
		}
	}

	type pair struct{ u, a int32 }
	var kills []pair
	kill := func(u, a int) {
		if rel[u][a] {
			rel[u][a] = false
			alive--
			kills = append(kills, pair{int32(u), int32(a)})
		}
	}

	for eid := 0; eid < p.EdgeCount(); eid++ {
		ep := p.EdgeAt(eid)
		for u := 0; u < nq; u++ {
			for _, qeid := range q.Out(u) {
				eq := q.EdgeAt(int(qeid))
				if edgeServes(eq, ep) && rel[eq.To][ep.To] {
					childCnt[eid][u]++
				}
			}
			if mode == ContainDual {
				for _, qeid := range q.In(u) {
					eq := q.EdgeAt(int(qeid))
					if edgeServes(eq, ep) && rel[eq.From][ep.From] {
						parCnt[eid][u]++
					}
				}
			}
		}
	}
	for u := 0; u < nq; u++ {
		for a := 0; a < np; a++ {
			if !rel[u][a] {
				continue
			}
			for _, eid := range p.Out(a) {
				if childCnt[eid][u] == 0 {
					kill(u, a)
					break
				}
			}
			if mode == ContainDual && rel[u][a] {
				for _, eid := range p.In(a) {
					if parCnt[eid][u] == 0 {
						kill(u, a)
						break
					}
				}
			}
		}
	}

	for len(kills) > 0 {
		k := kills[len(kills)-1]
		kills = kills[:len(kills)-1]
		v, b := int(k.u), int(k.a)
		// (v, b) died: q-edges into v lose a child witness for p-edges
		// into b.
		for _, qeid := range q.In(v) {
			eq := q.EdgeAt(int(qeid))
			u := eq.From
			for _, peid := range p.In(b) {
				ep := p.EdgeAt(int(peid))
				if !edgeServes(eq, ep) {
					continue
				}
				childCnt[peid][u]--
				if childCnt[peid][u] == 0 && rel[u][ep.From] {
					kill(u, ep.From)
				}
			}
		}
		if mode == ContainDual {
			// And q-edges out of v lose a parent witness for p-edges out
			// of b.
			for _, qeid := range q.Out(v) {
				eq := q.EdgeAt(int(qeid))
				w := eq.To
				for _, peid := range p.Out(b) {
					ep := p.EdgeAt(int(peid))
					if !edgeServes(eq, ep) {
						continue
					}
					parCnt[peid][w]--
					if parCnt[peid][w] == 0 && rel[w][ep.To] {
						kill(w, ep.To)
					}
				}
			}
		}
	}

	witness = make([][]int32, nq)
	ok = true
	for u := 0; u < nq; u++ {
		for a := 0; a < np; a++ {
			if rel[u][a] {
				witness[u] = append(witness[u], int32(a))
			}
		}
		if len(witness[u]) == 0 {
			ok = false
		}
	}
	return witness, ok
}

// Contains reports whether p contains q (q ⊑ p) under the child-only
// check: on every graph, each node of q maps to a node of p whose match
// set includes q's.
func Contains(p, q *Pattern) bool {
	_, ok := Containment(p, q, ContainChild)
	return ok
}

// edgeServes reports whether any witness (path or walk) for the q-edge
// eq necessarily witnesses the p-edge ep too — eq's constraint is at
// least as strict.
func edgeServes(eq, ep Edge) bool {
	if ep.Color != "" && ep.Color != eq.Color {
		return false
	}
	if ep.Ranged() {
		// ep demands a walk of length in [lo, hi]: only a ranged q-edge
		// within that window guarantees one (a plain path may be shorter
		// than lo).
		return eq.Ranged() && eq.MinBound >= ep.MinBound && eq.Bound <= ep.Bound
	}
	if ep.Bound == Unbounded {
		return true // any witness is a nonempty path
	}
	// ep demands distance <= Bound; a q-path of length <= eq.Bound or a
	// q-walk of length <= eq.Bound both imply it.
	return eq.Bound != Unbounded && eq.Bound <= ep.Bound
}

// predImplies reports whether predicate a entails predicate b: every
// tuple satisfying a satisfies b. Checked atom-by-atom — each conjunct
// of b must be implied by some conjunct of a — which is sound, and
// complete for single-atom entailment (see atomImplies).
func predImplies(a, b Predicate) bool {
	for _, bb := range b {
		found := false
		for _, aa := range a {
			if atomImplies(aa, bb) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// atomImplies reports whether atom x entails atom y: every value
// satisfying "attr_x op_x val_x" satisfies y. The analysis treats each
// operator's satisfied set over the full value domain (numbers and
// strings; incomparable kinds fail every operator except !=, which they
// satisfy) and decides subset exactly, so entailment chains compose.
func atomImplies(x, y Atom) bool {
	if x.Attr != y.Attr {
		return false
	}
	switch {
	case x.Op == value.OpEQ:
		// S(x) = {val_x}: membership test.
		return y.Op.Apply(x.Val, y.Val)
	case y.Op == value.OpNE:
		// Implied iff val_y cannot satisfy x.
		if x.Op == value.OpNE {
			return x.Val.Equal(y.Val)
		}
		return !x.Op.Apply(y.Val, x.Val)
	case x.Op == value.OpNE:
		return false // everything-but-one-value fits inside no other set
	case y.Op == value.OpEQ:
		return false // an order interval is never a single point
	}
	// Both are order intervals; containment needs the same direction and
	// comparable constants (a numeric interval holds no strings and vice
	// versa).
	cmp, ok := value.Compare(x.Val, y.Val)
	if !ok {
		return false
	}
	switch y.Op {
	case value.OpLT:
		return (x.Op == value.OpLT && cmp <= 0) || (x.Op == value.OpLE && cmp < 0)
	case value.OpLE:
		return (x.Op == value.OpLT || x.Op == value.OpLE) && cmp <= 0
	case value.OpGT:
		return (x.Op == value.OpGT && cmp >= 0) || (x.Op == value.OpGE && cmp > 0)
	case value.OpGE:
		return (x.Op == value.OpGT || x.Op == value.OpGE) && cmp >= 0
	}
	return false
}
