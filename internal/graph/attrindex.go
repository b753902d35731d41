package graph

import (
	"math"
	"sort"

	"gpm/internal/value"
)

// AttrIndex orders the nodes that carry one attribute by that attribute's
// value, so "A op a" for op in {<, <=, =, >=, >} selects a contiguous
// range found by binary search instead of a scan of every tuple —
// candidate selection for all four relation semantics starts here (see
// pattern.Candidates).
//
// Only a homogeneous column is indexed: all strings, or all numeric with
// every value exactly representable as a float64 (floats that are not
// NaN, integers below 2^53 in magnitude). On such a column
// value.Compare(x, a) equals the comparison of the sort keys for every
// constant a, which is what makes the binary search sound; on anything
// else (mixed kinds, NaN, huge integers whose float image collides with a
// neighbour's) Compare is not a total order and the column stays
// unindexed.
type AttrIndex struct {
	ids  []int32   // nodes carrying the attribute, by (value, id) ascending
	strs []string  // sort keys of a string column, aligned with ids
	nums []float64 // sort keys of a numeric column, aligned with ids
}

// maxExactInt bounds the integers a float64 holds exactly.
const maxExactInt = 1 << 53

// AttrIndex returns the index of attribute name, built on first use and
// shared by every reader of the snapshot, or nil when the column is not
// indexable (or no node carries the attribute).
func (f *Frozen) AttrIndex(name string) *AttrIndex {
	f.attrMu.RLock()
	x, ok := f.attrIdx[name]
	f.attrMu.RUnlock()
	if ok {
		return x
	}
	f.attrMu.Lock()
	defer f.attrMu.Unlock()
	if x, ok = f.attrIdx[name]; !ok {
		x = buildAttrIndex(f, name)
		if f.attrIdx == nil {
			f.attrIdx = make(map[string]*AttrIndex)
		}
		f.attrIdx[name] = x
	}
	return x
}

func buildAttrIndex(f *Frozen, name string) *AttrIndex {
	x := &AttrIndex{}
	for v := 0; v < f.N(); v++ {
		val, ok := f.attrs[v][name]
		if !ok {
			continue
		}
		switch val.Kind() {
		case value.KindString:
			s, _ := val.AsString()
			x.strs = append(x.strs, s)
		case value.KindInt:
			if i, _ := val.AsInt(); i <= -maxExactInt || i >= maxExactInt {
				return nil
			}
			fallthrough
		default:
			k, _ := val.AsFloat()
			if math.IsNaN(k) {
				return nil
			}
			x.nums = append(x.nums, k)
		}
		x.ids = append(x.ids, int32(v))
	}
	if len(x.ids) == 0 || (len(x.strs) > 0 && len(x.nums) > 0) {
		return nil
	}
	// Sort positions, then permute: ids were appended ascending, so a
	// stable sort leaves ties id-ordered.
	order := make([]int, len(x.ids))
	for i := range order {
		order[i] = i
	}
	sorted := &AttrIndex{ids: make([]int32, len(order))}
	if x.strs != nil {
		sort.SliceStable(order, func(a, b int) bool { return x.strs[order[a]] < x.strs[order[b]] })
		sorted.strs = make([]string, len(order))
	} else {
		sort.SliceStable(order, func(a, b int) bool { return x.nums[order[a]] < x.nums[order[b]] })
		sorted.nums = make([]float64, len(order))
	}
	for i, o := range order {
		sorted.ids[i] = x.ids[o]
		if x.strs != nil {
			sorted.strs[i] = x.strs[o]
		} else {
			sorted.nums[i] = x.nums[o]
		}
	}
	return sorted
}

// Len returns the number of nodes carrying the attribute.
func (x *AttrIndex) Len() int { return len(x.ids) }

// IDs returns the nodes at positions [lo, hi) of the value order. The
// slice is owned by the index and must not be modified.
func (x *AttrIndex) IDs(lo, hi int) []int32 { return x.ids[lo:hi] }

// Interval returns the positions [lo, hi) of the nodes whose attribute
// value v satisfies "v op val"; intervals of several atoms over one
// attribute intersect into the interval of their conjunction. ok is false
// when the index cannot answer — op is !=, or val is NaN (which Compare
// treats as equal to every number) — and the caller must not use it.
func (x *AttrIndex) Interval(op value.Op, val value.Value) (lo, hi int, ok bool) {
	if op == value.OpNE {
		return 0, 0, false
	}
	var ge, gt int // first position with key >= val, first with key > val
	if s, isStr := val.AsString(); isStr {
		if x.strs == nil {
			return 0, 0, true // a string never compares with a number
		}
		ge = sort.SearchStrings(x.strs, s)
		gt = ge + sort.Search(len(x.strs)-ge, func(i int) bool { return x.strs[ge+i] > s })
	} else {
		k, _ := val.AsFloat()
		if math.IsNaN(k) {
			return 0, 0, false
		}
		if x.nums == nil {
			return 0, 0, true
		}
		ge = sort.SearchFloat64s(x.nums, k)
		gt = ge + sort.Search(len(x.nums)-ge, func(i int) bool { return x.nums[ge+i] > k })
	}
	switch op {
	case value.OpLT:
		return 0, ge, true
	case value.OpLE:
		return 0, gt, true
	case value.OpEQ:
		return ge, gt, true
	case value.OpGE:
		return ge, len(x.ids), true
	case value.OpGT:
		return gt, len(x.ids), true
	}
	return 0, 0, false
}
