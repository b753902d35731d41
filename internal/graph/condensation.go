package graph

// Condensation is the strongly-connected-component decomposition of a
// Frozen: unbounded reachability ("*" pattern edges) factors through it,
// so one pass over components answers "which of these 64 sources reach
// w by a nonempty path" for every w at once (see internal/core's sweeps).
//
// Component ids are in reverse topological order of the condensation
// DAG: every edge between two components leads from the higher id to the
// lower one, so a single descending pass propagates reachability.
type Condensation struct {
	comp   []int32 // component id per node
	off    []int32 // nodes of component c are nodes[off[c]:off[c+1]]
	nodes  []int32
	cyclic []bool // component has an internal edge: size > 1 or a self-loop
}

// Condensation returns the SCC decomposition of the snapshot, computed on
// first use (one iterative Tarjan over the CSR, O(|V|+|E|)) and shared by
// every later caller. It lives and dies with the snapshot: the engine
// drops its Frozen on every effective update, so there is no separate
// invalidation.
func (f *Frozen) Condensation() *Condensation {
	f.condOnce.Do(func() { f.cond = condense(f) })
	return f.cond
}

// Components returns the number of components.
func (c *Condensation) Components() int { return len(c.cyclic) }

// Of returns the component id of node v.
func (c *Condensation) Of(v int) int32 { return c.comp[v] }

// Nodes returns the members of component id. The slice is owned by the
// condensation and must not be modified.
func (c *Condensation) Nodes(id int) []int32 { return c.nodes[c.off[id]:c.off[id+1]] }

// Cyclic reports whether component id has an internal edge, i.e. whether
// its members reach themselves (and each other) by a nonempty path. A
// trivial component — one node without a self-loop — does not.
func (c *Condensation) Cyclic(id int) bool { return c.cyclic[id] }

// condense runs Tarjan's algorithm iteratively over the out-adjacency.
// Components are numbered in the order Tarjan completes them, which is
// reverse topological.
func condense(f *Frozen) *Condensation {
	n := f.N()
	c := &Condensation{
		comp:  make([]int32, n),
		off:   []int32{0},
		nodes: make([]int32, 0, n),
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	type frame struct {
		v  int32
		ei int32
	}
	var (
		stack     []int32
		callStack []frame
		next      int32
	)
	visit := func(v int32) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		callStack = append(callStack, frame{v: v})
	}
	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		visit(int32(root))
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			v := fr.v
			if outs := f.Out(int(v)); int(fr.ei) < len(outs) {
				w := outs[fr.ei]
				fr.ei++
				if index[w] < 0 {
					visit(w)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				if p := callStack[len(callStack)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			id := int32(len(c.cyclic))
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				c.comp[w] = id
				c.nodes = append(c.nodes, w)
				if w == v {
					break
				}
			}
			c.off = append(c.off, int32(len(c.nodes)))
			c.cyclic = append(c.cyclic, int(c.off[id+1]-c.off[id]) > 1)
		}
	}
	for v := 0; v < n; v++ {
		if c.cyclic[c.comp[v]] {
			continue
		}
		for _, w := range f.Out(v) {
			if int(w) == v {
				c.cyclic[c.comp[v]] = true
				break
			}
		}
	}
	return c
}
