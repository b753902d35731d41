package pattern

import (
	"slices"

	"gpm/internal/cancel"
	"gpm/internal/graph"
)

// Candidates returns, ascending, the nodes of f whose attribute tuple
// satisfies pred — and, when needsOut is set, that have an out-edge (a
// node with no successors can witness no pattern edge). It is the
// candidate-selection step shared by bounded, plain, dual and strong
// simulation.
//
// Instead of evaluating pred on every tuple it picks the attribute whose
// index range is shortest (see graph.AttrIndex: a binary search per atom
// with op in {<, <=, =, >=, >} over an indexable column), walks that range
// and verifies every node in it with pred.Match, so the index only has
// to return a superset. Predicates with no indexable atom — empty, all
// !=, mixed-kind columns — scan as before. poll is checked once per node
// examined.
func Candidates(f *graph.Frozen, pred Predicate, needsOut bool, poll *cancel.Poller) ([]int32, error) {
	var out []int32
	admit := func(x int) error {
		if err := poll.Err(); err != nil {
			return err
		}
		if !(needsOut && f.OutDegree(x) == 0) && pred.Match(f.Attr(x)) {
			out = append(out, int32(x))
		}
		return nil
	}
	if rng, ok := shortestRange(f, pred); ok {
		for _, x := range rng {
			if err := admit(int(x)); err != nil {
				return nil, err
			}
		}
		slices.Sort(out) // the range is in value order
		return out, nil
	}
	for x := 0; x < f.N(); x++ {
		if err := admit(x); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shortestRange returns the smallest index range the atoms of pred
// select, ok false when none has one. Atoms over the same attribute —
// the two ends of a window, say — select intervals of the same value
// order, so they intersect into one before the lengths are compared.
func shortestRange(f *graph.Frozen, pred Predicate) (best []int32, ok bool) {
	for i, a := range pred {
		if slices.ContainsFunc(pred[:i], func(b Atom) bool { return b.Attr == a.Attr }) {
			continue // folded into the attribute's first atom
		}
		idx := f.AttrIndex(a.Attr)
		if idx == nil {
			continue
		}
		lo, hi, found := 0, idx.Len(), false
		for _, b := range pred[i:] {
			if b.Attr != a.Attr {
				continue
			}
			if l, h, has := idx.Interval(b.Op, b.Val); has {
				lo, hi, found = max(lo, l), min(hi, h), true
			}
		}
		if !found {
			continue
		}
		if rng := idx.IDs(lo, max(lo, hi)); !ok || len(rng) < len(best) {
			best, ok = rng, true
		}
	}
	return best, ok
}
