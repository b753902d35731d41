package topo

import (
	"context"
	"sync"

	"gpm/internal/cancel"
	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// cancelPollInterval matches the matching core's amortised cancellation
// polling rate.
const cancelPollInterval = 4096

// removal is one (pattern node, data node) pair queued for deletion.
type removal struct {
	u int32
	x int32
}

// StrongSim computes strong simulation of p in f (Ma et al., §4): dual
// simulation with locality. For every candidate center w — a data node
// in the image of the whole-graph dual simulation — the ball Ĝ[w, dP] of
// radius dP (the pattern's undirected diameter) is extracted, dual
// simulation of the pattern is computed inside the ball, and the ball is
// accepted when w itself is matched and the connected component of the
// match graph containing w covers every pattern node (the maximum
// perfect subgraph). The result relation is the union over accepted
// balls; ok reports whether every pattern node kept at least one match.
//
// Disconnected patterns are handled per weakly-connected component, each
// with its own diameter and ball sweep (Ma et al. assume connected
// patterns; the component decomposition is the natural extension, since
// dual-simulation constraints never cross components).
//
// Balls are independent, so their evaluation is sharded across
// opts.Workers goroutines, each owning its scratch (ball BFS buffers
// from the graph.Scratch pool, grow-on-demand local bitmaps and
// counters). The union over accepted balls is order-independent and the
// final relation is emitted by one sorted scan, so every worker count
// returns bit-identical relations.
func StrongSim(ctx context.Context, p *pattern.Pattern, f *graph.Frozen, opts Options) (rel [][]int32, ok bool, err error) {
	if err := checkPattern(p); err != nil {
		return nil, false, err
	}
	np, n := p.N(), f.N()

	// Whole-graph dual simulation is both a prefilter (strong ⊆ dual, so
	// per-ball candidates start from the dual relation) and the source
	// of candidate centers (an unmatched center can never anchor a
	// perfect subgraph). The ball workers read it as bitmaps.
	dualRes, err := core.MatchOpts(ctx, p, nil, nil, nil, core.MatchOptions{Workers: opts.Workers, Frozen: f, Dual: true})
	if err != nil {
		return nil, false, err
	}
	dual := make([][]bool, np)
	for u := range dual {
		dual[u] = make([]bool, n)
		for _, x := range dualRes.Mat(u) {
			dual[u][x] = true
		}
	}

	comps := Components(p)

	// Candidate centers per component: the sorted union of the dual
	// matches of the component's pattern nodes.
	type ballTask struct {
		comp   int
		center int32
	}
	var tasks []ballTask
	mark := make([]bool, n)
	for ci, c := range comps {
		for _, u := range c.Nodes {
			for _, x := range dualRes.Mat(u) {
				mark[x] = true
			}
		}
		for x := 0; x < n; x++ {
			if mark[x] {
				tasks = append(tasks, ballTask{ci, int32(x)})
				mark[x] = false
			}
		}
	}

	workers := opts.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	// Accepted pairs accumulate into one shared bitmap: emission happens
	// once per accepted ball (rare next to ball evaluation), so a mutex
	// costs nothing, and bit-marking is order-independent — the merge
	// stays bit-identical at every worker count without paying
	// O(workers·|Vp|·|V|) per-worker bitmaps.
	res := &acceptedPairs{bits: make([][]bool, np)}
	for u := 0; u < np; u++ {
		res.bits[u] = make([]bool, n)
	}
	ws := make([]*strongWorker, workers)
	for w := range ws {
		ws[w] = newStrongWorker(ctx, p, f, dual, res)
	}
	defer func() {
		for _, w := range ws {
			w.sc.Put()
		}
	}()
	err = RunShards(workers, len(tasks), func(w, t int) error {
		return ws[w].ball(&comps[tasks[t].comp], int(tasks[t].center))
	})
	if err != nil {
		return nil, false, err
	}

	// Deterministic merge: one sorted scan over the shared bitmap —
	// identical at every worker count.
	rel, ok = collect(res.bits)
	return rel, ok, nil
}

// acceptedPairs is the shared accepted-pair bitmap of one StrongSim
// call; workers mark bits under the mutex once per accepted ball.
type acceptedPairs struct {
	mu   sync.Mutex
	bits [][]bool
}

// Component is one weakly-connected component of a pattern: its nodes,
// its edge ids and its undirected diameter (the ball radius). It is
// exported for callers that schedule their own ball sweeps — the
// incremental strong-simulation watcher re-evaluates only the balls an
// update batch can have touched.
type Component struct {
	Nodes  []int
	Edges  []int
	Radius int
}

// Components decomposes p into weakly-connected components and computes
// each component's undirected diameter by BFS from every node (patterns
// are small; this is O(|Vp|·|Ep|)).
func Components(p *pattern.Pattern) []Component {
	np := p.N()
	adj := make([][]int, np) // undirected pattern adjacency
	for eid := 0; eid < p.EdgeCount(); eid++ {
		e := p.EdgeAt(eid)
		if e.From != e.To {
			adj[e.From] = append(adj[e.From], e.To)
			adj[e.To] = append(adj[e.To], e.From)
		}
	}
	compOf := make([]int, np)
	for i := range compOf {
		compOf[i] = -1
	}
	var comps []Component
	dist := make([]int, np)
	var queue []int
	for start := 0; start < np; start++ {
		if compOf[start] >= 0 {
			continue
		}
		ci := len(comps)
		var c Component
		queue = append(queue[:0], start)
		compOf[start] = ci
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			c.Nodes = append(c.Nodes, v)
			for _, w := range adj[v] {
				if compOf[w] < 0 {
					compOf[w] = ci
					queue = append(queue, w)
				}
			}
		}
		// Undirected eccentricities within the component.
		for _, src := range c.Nodes {
			for _, v := range c.Nodes {
				dist[v] = -1
			}
			dist[src] = 0
			queue = append(queue[:0], src)
			for head := 0; head < len(queue); head++ {
				v := queue[head]
				for _, w := range adj[v] {
					if dist[w] < 0 {
						dist[w] = dist[v] + 1
						queue = append(queue, w)
					}
				}
			}
			for _, v := range c.Nodes {
				if dist[v] > c.Radius {
					c.Radius = dist[v]
				}
			}
		}
		comps = append(comps, c)
	}
	for eid := 0; eid < p.EdgeCount(); eid++ {
		ci := compOf[p.EdgeAt(eid).From]
		comps[ci].Edges = append(comps[ci].Edges, eid)
	}
	return comps
}

// strongWorker owns the scratch state of one ball-evaluation goroutine.
// All per-ball buffers are indexed by local ids (the ball's BFS order)
// and grown on demand, then zeroed back after each ball, so a worker's
// steady-state evaluation does not allocate.
type strongWorker struct {
	p    *pattern.Pattern
	f    *graph.Frozen
	dual [][]bool
	poll cancel.Poller
	cur  *Component // component being evaluated by the current ball

	sc      *graph.Scratch // ball members; Dist maps them to local ids, -1 outside (pooled)
	sim     [][]bool       // per pattern node, local ball ids
	fwd     [][]int32      // per pattern edge, out-witness counters
	back    [][]int32      // per pattern edge, in-witness counters
	work    []removal      // local removal worklist
	visited []bool         // match-graph BFS marks
	mq      []int32        // match-graph BFS queue
	res     *acceptedPairs // shared accepted-pair sink; nil in collect mode
	out     [][2]int32     // collect-mode output: accepted (u, x) pairs
}

func newStrongWorker(ctx context.Context, p *pattern.Pattern, f *graph.Frozen, dual [][]bool, res *acceptedPairs) *strongWorker {
	np, n := p.N(), f.N()
	w := &strongWorker{
		p:    p,
		f:    f,
		dual: dual,
		poll: cancel.Every(ctx, cancelPollInterval),
		sc:   graph.GetScratch(n),
		sim:  make([][]bool, np),
		fwd:  make([][]int32, p.EdgeCount()),
		back: make([][]int32, p.EdgeCount()),
		res:  res,
	}
	return w
}

func growBool(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n)
	}
	*s = (*s)[:n]
	return *s
}

func growI32(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

// ball evaluates one candidate center: extract the ball, run dual
// simulation inside it, extract the maximum perfect subgraph around the
// center, and accumulate its pairs into w.res when it covers every
// pattern node of the component.
func (w *strongWorker) ball(c *Component, center int) error {
	pat := w.p
	w.cur = c
	r := w.f.BallInto(center, c.Radius, w.sc.Dist, &w.sc.Queue)
	members := w.sc.Queue[:r]
	// BallInto left Dist ≥ 0 exactly at the members; from here on it
	// holds their local ids instead of their distances.
	lid := w.sc.Dist
	for i, g := range members {
		lid[g] = int32(i)
	}
	defer func() {
		// Return every touched buffer to its zero state so the next ball
		// starts clean without O(n) refills.
		for _, g := range members {
			lid[g] = -1
		}
		for _, u := range c.Nodes {
			row := w.sim[u]
			for i := range row {
				row[i] = false
			}
		}
		for _, eid := range c.Edges {
			for i := range w.fwd[eid] {
				w.fwd[eid][i] = 0
			}
			for i := range w.back[eid] {
				w.back[eid][i] = 0
			}
		}
		for i := range w.visited {
			w.visited[i] = false
		}
		w.work = w.work[:0]
		w.mq = w.mq[:0]
	}()

	// Initial candidates: the whole-graph dual relation restricted to the
	// ball (it contains every dual simulation inside the ball, so the
	// greatest fixpoint from here is the ball's maximum dual simulation).
	for _, u := range c.Nodes {
		row := growBool(&w.sim[u], r)
		for i, g := range members {
			row[i] = w.dual[u][g]
		}
	}

	// Counter seeding over ball-internal edges.
	for _, eid := range c.Edges {
		e := pat.EdgeAt(eid)
		fr := growI32(&w.fwd[eid], r)
		bk := growI32(&w.back[eid], r)
		for i, g := range members {
			if err := w.poll.Err(); err != nil {
				return err
			}
			if w.sim[e.From][i] {
				for _, y := range w.f.Out(int(g)) {
					ly := lid[y]
					if ly >= 0 && w.sim[e.To][ly] && colorOK(w.f, int(g), int(y), e.Color) {
						fr[i]++
					}
				}
				if fr[i] == 0 {
					w.work = append(w.work, removal{int32(e.From), int32(i)})
				}
			}
			if w.sim[e.To][i] {
				for _, z := range w.f.In(int(g)) {
					lz := lid[z]
					if lz >= 0 && w.sim[e.From][lz] && colorOK(w.f, int(z), int(g), e.Color) {
						bk[i]++
					}
				}
				if bk[i] == 0 {
					w.work = append(w.work, removal{int32(e.To), int32(i)})
				}
			}
		}
	}

	// Local refinement cascade (same scheme as DualSim, ball-restricted).
	for len(w.work) > 0 {
		rm := w.work[len(w.work)-1]
		w.work = w.work[:len(w.work)-1]
		u, lx := int(rm.u), int(rm.x)
		if !w.sim[u][lx] {
			continue
		}
		w.sim[u][lx] = false
		gx := int(members[lx])
		for _, eid := range pat.In(u) {
			e := pat.EdgeAt(int(eid))
			for _, z := range w.f.In(gx) {
				if err := w.poll.Err(); err != nil {
					return err
				}
				lz := lid[z]
				if lz < 0 || !w.sim[e.From][lz] || !colorOK(w.f, int(z), gx, e.Color) {
					continue
				}
				w.fwd[eid][lz]--
				if w.fwd[eid][lz] == 0 {
					w.work = append(w.work, removal{int32(e.From), lz})
				}
			}
		}
		for _, eid := range pat.Out(u) {
			e := pat.EdgeAt(int(eid))
			for _, y := range w.f.Out(gx) {
				if err := w.poll.Err(); err != nil {
					return err
				}
				ly := lid[y]
				if ly < 0 || !w.sim[e.To][ly] || !colorOK(w.f, gx, int(y), e.Color) {
					continue
				}
				w.back[eid][ly]--
				if w.back[eid][ly] == 0 {
					w.work = append(w.work, removal{int32(e.To), ly})
				}
			}
		}
	}

	// The center (local id 0, first out of the BFS) must itself be
	// matched, or the ball cannot anchor a perfect subgraph.
	centerMatched := false
	for _, u := range c.Nodes {
		if w.sim[u][0] {
			centerMatched = true
			break
		}
	}
	if !centerMatched {
		return nil
	}

	// Maximum perfect subgraph: the connected component of the match
	// graph containing the center. Match-graph edges connect matched
	// data nodes realising some pattern edge inside the ball.
	w.visited = growBool(&w.visited, r)
	for i := range w.visited {
		w.visited[i] = false
	}
	w.visited[0] = true
	w.mq = append(w.mq[:0], 0)
	for head := 0; head < len(w.mq); head++ {
		lx := int(w.mq[head])
		gx := int(members[lx])
		for _, y := range w.f.Out(gx) {
			ly := lid[y]
			if ly >= 0 && !w.visited[ly] && w.matchEdge(lx, int(ly), gx, int(y)) {
				w.visited[ly] = true
				w.mq = append(w.mq, ly)
			}
		}
		for _, z := range w.f.In(gx) {
			lz := lid[z]
			if lz >= 0 && !w.visited[lz] && w.matchEdge(int(lz), lx, int(z), gx) {
				w.visited[lz] = true
				w.mq = append(w.mq, lz)
			}
		}
	}

	// Perfect = the component covers every pattern node of c.
	for _, u := range c.Nodes {
		found := false
		for i, in := range w.sim[u] {
			if in && w.visited[i] {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	if w.res == nil {
		// Collect mode (BallEvaluator): hand the accepted pairs back to
		// the caller instead of marking the shared bitmap.
		for _, u := range c.Nodes {
			for i, in := range w.sim[u] {
				if in && w.visited[i] {
					w.out = append(w.out, [2]int32{int32(u), members[i]})
				}
			}
		}
		return nil
	}
	w.res.mu.Lock()
	for _, u := range c.Nodes {
		for i, in := range w.sim[u] {
			if in && w.visited[i] {
				w.res.bits[u][members[i]] = true
			}
		}
	}
	w.res.mu.Unlock()
	return nil
}

// BallEvaluator evaluates individual strong-simulation balls against a
// frozen snapshot, for callers that schedule their own center sweep —
// the incremental strong-simulation watcher re-evaluates only the balls
// an update batch can have touched and reuses the untouched balls'
// stored contributions. dual must be the whole-graph dual-simulation
// membership bitmaps of p in f (per pattern node, indexed by data node);
// the evaluator reads it but never writes. One evaluator serves one
// goroutine; create one per worker and Close it to return the pooled
// scratch.
type BallEvaluator struct {
	w *strongWorker
}

// NewBallEvaluator binds an evaluator to one snapshot and dual relation.
func NewBallEvaluator(ctx context.Context, p *pattern.Pattern, f *graph.Frozen, dual [][]bool) *BallEvaluator {
	return &BallEvaluator{w: newStrongWorker(ctx, p, f, dual, nil)}
}

// Eval evaluates the ball of one candidate center for one pattern
// component, appending the accepted (pattern node, data node) pairs to
// out and returning it. A rejected ball (center unmatched, or the match
// graph's component around it does not cover every pattern node) appends
// nothing. Results are deterministic in (f, dual, c, center), so any
// scheduling of Eval calls across evaluators merges to the same union.
func (b *BallEvaluator) Eval(c *Component, center int, out [][2]int32) ([][2]int32, error) {
	b.w.out = out
	err := b.w.ball(c, center)
	out, b.w.out = b.w.out, nil
	return out, err
}

// Close returns the evaluator's pooled scratch. The evaluator must not
// be used afterwards.
func (b *BallEvaluator) Close() { b.w.sc.Put() }

// matchEdge reports whether data edge (gx, gy) — both endpoints inside
// the current ball with local ids lx, ly — realises some pattern edge of
// the current component, i.e. is an edge of the match graph.
func (w *strongWorker) matchEdge(lx, ly, gx, gy int) bool {
	for _, eid := range w.cur.Edges {
		e := w.p.EdgeAt(eid)
		if w.sim[e.From][lx] && w.sim[e.To][ly] && colorOK(w.f, gx, gy, e.Color) {
			return true
		}
	}
	return false
}
