package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"gpm/internal/cancel"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// Stats counts the work one matching query performed. Callers pass a
// zeroed Stats to MatchContext; the engine layer surfaces it per query.
type Stats struct {
	OracleQueries int64 // distance-oracle probes issued
	SweepScans    int64 // adjacency entries scanned by witness sweeps, condensation passes and removals
	Removals      int64 // pairs removed during refinement
	InitialPairs  int64 // candidate pairs before refinement
}

// Result is the outcome of a bounded-simulation computation: the greatest
// fixpoint of the refinement step, which is the unique maximum match S of
// Proposition 2.1 when every pattern node retains at least one data node.
type Result struct {
	p   *pattern.Pattern
	g   *graph.Graph
	mat [][]int32 // per pattern node, ascending data-node ids
	ok  bool
}

// OK reports whether P ⊴ G, i.e. every pattern node has a match.
func (r *Result) OK() bool { return r.ok }

// Pattern returns the pattern this result was computed for.
func (r *Result) Pattern() *pattern.Pattern { return r.p }

// Graph returns the data graph this result was computed over.
func (r *Result) Graph() *graph.Graph { return r.g }

// Mat returns the sorted data nodes matching pattern node u. When OK is
// false this is the fixpoint remainder, useful for diagnostics and for
// the per-node counts reported in the paper's Fig. 6(d); the maximum
// match itself is empty in that case (Match, line 10).
func (r *Result) Mat(u int) []int32 { return r.mat[u] }

// Relation returns the whole relation as a copy, one sorted slice of data
// nodes per pattern node.
func (r *Result) Relation() [][]int32 {
	out := make([][]int32, len(r.mat))
	for i, l := range r.mat {
		out[i] = append([]int32(nil), l...)
	}
	return out
}

// Rows returns the relation itself, not a copy: the caller takes
// ownership of the rows from a result it alone holds.
func (r *Result) Rows() [][]int32 { return r.mat }

// Pairs returns |S|, the number of (pattern node, data node) pairs.
func (r *Result) Pairs() int {
	total := 0
	for _, l := range r.mat {
		total += len(l)
	}
	return total
}

// MatchedNodes returns how many pattern nodes have at least one match —
// the quantity plotted against added pattern edges in Fig. 6(d)'s prose.
func (r *Result) MatchedNodes() int {
	n := 0
	for _, l := range r.mat {
		if len(l) > 0 {
			n++
		}
	}
	return n
}

// Contains reports whether (u, x) is in the relation.
func (r *Result) Contains(u int, x int32) bool {
	_, ok := slices.BinarySearch(r.mat[u], x)
	return ok
}

// String summarises the result.
func (r *Result) String() string {
	return fmt.Sprintf("match{ok: %v, pairs: %d}", r.ok, r.Pairs())
}

// NewResult wraps a relation — one computed by another matching
// semantics (strong simulation, see internal/topo), or rows handed out
// by Rows — into a Result, making it result-graph-capable and giving it
// the Result accessor set. mat must hold ascending data-node ids per
// pattern node; ok reports whether every pattern node matched. The
// Result reads mat in place, so mat must not change while it is in use.
func NewResult(p *pattern.Pattern, g *graph.Graph, mat [][]int32, ok bool) *Result {
	return &Result{p: p, g: g, mat: mat, ok: ok}
}

// Match computes the maximum bounded-simulation match of p in g using a
// freshly built distance matrix — the paper's algorithm Match (Fig. 4).
func Match(p *pattern.Pattern, g *graph.Graph) (*Result, error) {
	return MatchWithOracle(p, g, BuildMatrixOracle(g))
}

// MatchBFS is Match with BFS-computed distances (the "BFS" variant of
// Exp-2): no preprocessing, higher per-query cost.
func MatchBFS(p *pattern.Pattern, g *graph.Graph) (*Result, error) {
	return MatchWithOracle(p, g, NewBFSOracle(g))
}

// Match2Hop is Match with the 2-hop reachability filter in front of BFS
// (the "2-hop" variant of Exp-2).
func Match2Hop(p *pattern.Pattern, g *graph.Graph) (*Result, error) {
	return MatchWithOracle(p, g, BuildTwoHopOracle(g))
}

// MatchWithOracle runs the refinement with the given distance oracle.
//
// The implementation realises Fig. 4's premv bookkeeping as the standard
// counter/worklist scheme: for every pattern edge e = (u, u′) and every
// candidate x of u, cnt[e][x] counts the members of mat(u′) within e's
// bound of x. A pair leaves the relation exactly when one of its counters
// reaches zero; each removal decrements the counters of in-bound ancestor
// candidates, cascading until the greatest fixpoint. With the matrix
// oracle each distance probe is O(1), giving the Theorem 3.1 bound
// O(|V||E| + |Ep||V|² + |Vp||V|).
func MatchWithOracle(p *pattern.Pattern, g *graph.Graph, o DistOracle) (*Result, error) {
	return MatchContext(context.Background(), p, g, o, nil)
}

// MatchContext is MatchWithOracle with cancellation and instrumentation:
// ctx is polled inside the candidate, counter and refinement loops (a
// cancelled context aborts the fixpoint with ctx.Err()), and when stats
// is non-nil the query's work counters are accumulated into it.
func MatchContext(ctx context.Context, p *pattern.Pattern, g *graph.Graph, o DistOracle, stats *Stats) (*Result, error) {
	return MatchOpts(ctx, p, g, o, stats, MatchOptions{})
}

// MatchOptions tunes one MatchOpts call beyond the defaults.
type MatchOptions struct {
	// Workers shards the candidate and counter initialisation — the
	// quadratic O(|Ep||V|²) phase of Theorem 3.1 — across this many
	// goroutines. Values <= 1 run fully sequentially. Parallel runs
	// require an oracle implementing WorkerCloner (all built-in oracles
	// do); unknown oracles silently fall back to sequential.
	// The refinement cascade itself stays single-threaded: the greatest
	// fixpoint is unique (Proposition 2.1), so the result is identical
	// for every worker count.
	Workers int
	// Frozen, when non-nil, is a pre-frozen snapshot of the data graph;
	// callers serving many queries (the engine layer) pass their cached
	// snapshot so each query skips the O(|V|+|E|) freeze. Handing one
	// switches the fixpoint to sweep mode: counter initialisation runs
	// witness sweeps over the snapshot (sweep.go) for every block,
	// removal walks arcs or reads witness matrices, candidate selection
	// uses the snapshot's attribute indexes, and the oracle is not
	// consulted at all. Relation and Stats.InitialPairs/Removals are
	// identical either way. Without it MatchOpts with an oracle is the
	// paper's Fig. 4 verbatim, one probe per candidate pair, except that
	// coloured and ranged edges, which no oracle answers, sweep over a
	// snapshot frozen on first need.
	Frozen *graph.Frozen
	// Seed, when non-nil, restricts each pattern node's initial candidate
	// set to the given data nodes (ascending, deduped, in-range; one
	// slice per pattern node) instead of scanning the whole graph. The
	// caller guarantees the seed is a superset of the true relation; the
	// greatest fixpoint inside any such superset is the maximum match, so
	// seeded runs return bit-identical results. Seeded initialisation is
	// sequential (the scan it replaces is the part worth sharding).
	Seed [][]int32
	// Dual adds the parent constraint of dual simulation (Ma et al.,
	// "Capturing Topology in Graph Pattern Matching"): for every pattern
	// edge (u, u′), a pair (u′, z) also needs a member of mat(u) with an
	// arc from it to z. The fixpoint then keeps two witness obligations
	// per edge, the parent one swept along in-arcs. Dual is edge-to-edge:
	// it requires a nil oracle and an all-bounds-one pattern.
	Dual bool
}

// MatchOpts is MatchContext with explicit MatchOptions.
//
// o may be nil on any pattern, and is unused when opts.Frozen is set.
// Either way the run is in sweep mode: every block sweeps, bounded, "*",
// coloured and ranged edges alike, and no distance is ever probed. On an
// all-bounds-one pattern that is plain graph simulation (§2.2, remark 2),
// or dual simulation with opts.Dual. g may be nil only when opts.Frozen
// is set and opts.Seed is not.
func MatchOpts(ctx context.Context, p *pattern.Pattern, g *graph.Graph, o DistOracle, stats *Stats, opts MatchOptions) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Dual && (o != nil || !p.AllBoundsOne()) {
		return nil, fmt.Errorf("core: dual simulation is edge-to-edge: it takes no distance oracle and every bound must be 1")
	}
	if opts.Frozen != nil {
		o = nil
	}
	st := &state{p: p, g: g, f: opts.Frozen, sweep: o == nil, seed: opts.Seed, stats: stats}
	if st.sweep {
		st.frozen()
	}
	st.constrain(opts.Dual)
	workers := opts.Workers
	if st.seed != nil {
		if len(st.seed) != p.N() {
			return nil, fmt.Errorf("core: seed has %d rows for a %d-node pattern", len(st.seed), p.N())
		}
		workers = 1
	}
	if _, ok := o.(WorkerCloner); o != nil && !ok || workers < 1 {
		workers = 1
	}
	if workers > 1 {
		st.frozen() // freeze before the pool starts: workers share the snapshot
	}
	// The first prober probes o itself and stays on for the refinement;
	// the others probe private clones during initialisation only.
	probers := make([]*prober, workers)
	for w := range probers {
		po := o
		if w > 0 && o != nil {
			po = cloneForWorker(o)
		}
		probers[w] = &prober{st: st, o: po, poll: cancel.Every(ctx, cancelPollInterval)}
	}
	st.main = probers[0]
	defer st.release(probers)

	if err := st.initCandidates(probers); err != nil {
		return nil, err
	}
	if err := st.initCounters(probers); err != nil {
		return nil, err
	}
	if err := st.refine(); err != nil {
		return nil, err
	}
	return st.result(), nil
}

// state carries the refinement data of one query.
type state struct {
	p     *pattern.Pattern
	g     *graph.Graph
	f     *graph.Frozen // CSR snapshot; lazily frozen when the caller gave none
	sweep bool          // sweep mode: a snapshot or no oracle; no probe at all

	cons []constraint // the witness obligations: one per pattern edge, two with Dual
	into [][]int32    // per pattern node u, the constraints whose witnesses lie in cand(u)

	// Everything per-candidate is indexed by position in cand(u), not by
	// data node, so a query's state is O(Σ|cand|) whatever |V| is.
	cand  [][]int32        // static candidate lists (predicate + out-degree test), ascending
	inMat [][]bool         // per pattern node, by position in cand(u)
	seed  [][]int32        // optional candidate restriction (MatchOptions.Seed)
	cnt   [][]int32        // per constraint, by position in cand(from)
	wit   []*witnessMatrix // per constraint; nil where remove walks arcs, sweeps or probes
	pos   []*positions     // per pattern node, where a constraint from it has no witness matrix
	work  []removalItem
	main  *prober // the sequential phases' prober

	stats *Stats
}

// constraint is one witness obligation of the fixpoint, derived from
// pattern edge e: every member of mat(from) needs a member of mat(to)
// within e's bound — downstream along e for the child constraint every
// semantics has, upstream against it for dual simulation's parent one.
type constraint struct {
	e        pattern.Edge
	from, to int
	parent   bool // witnesses lie upstream: sweeps follow in-arcs
}

// constrain lists the constraints: the child ones first, numbered as the
// pattern edges, then with dual the parent ones in the same order.
func (st *state) constrain(dual bool) {
	st.into = make([][]int32, st.p.N())
	add := func(c constraint) {
		st.into[c.to] = append(st.into[c.to], int32(len(st.cons)))
		st.cons = append(st.cons, c)
	}
	edges := st.p.Edges()
	for _, e := range edges {
		add(constraint{e: e, from: e.From, to: e.To})
	}
	if !dual {
		return
	}
	for _, e := range edges {
		add(constraint{e: e, from: e.To, to: e.From, parent: true})
	}
}

// cancelPollInterval balances cancellation latency against the cost of
// polling ctx.Err() in the cubic-time inner loops.
const cancelPollInterval = 4096

// removalItem is a pair queued for deletion: pattern node u and the
// position j of the data node in cand(u).
type removalItem struct {
	u int32
	j int32
}

// frozen returns the CSR snapshot of the data graph, freezing on first
// use when the caller did not supply one.
func (st *state) frozen() *graph.Frozen {
	if st.f == nil {
		st.f = st.g.Freeze()
	}
	return st.f
}

// release returns pooled scratch and folds the probers' work counters
// into the query's Stats.
func (st *state) release(probers []*prober) {
	for u, p := range st.pos {
		if p != nil {
			p.put(st.cand[u])
		}
	}
	for _, p := range probers {
		if p.sw != nil {
			p.sw.close()
		}
		if st.stats != nil {
			st.stats.OracleQueries += p.queries
			if p.sw != nil {
				st.stats.SweepScans += p.sw.scans
			}
		}
	}
}

// initCandidates computes cand(u): data nodes satisfying fv(u) whose
// out-degree is nonzero whenever u has outgoing pattern edges (Match,
// line 5 — a node with no successors can witness no nonempty path). One
// task per pattern node; a seeded run is sequential by construction
// (MatchOpts pins one worker).
func (st *state) initCandidates(probers []*prober) error {
	np := st.p.N()
	st.cand = make([][]int32, np)
	st.inMat = make([][]bool, np)
	err := runShards(probers, np, func(p *prober, u int) (err error) {
		st.cand[u], err = st.candidatesOf(u, &p.poll)
		return err
	})
	if err != nil {
		return err
	}
	for u, l := range st.cand {
		st.inMat[u] = make([]bool, len(l))
		for j := range l {
			st.inMat[u][j] = true
		}
		if st.stats != nil {
			st.stats.InitialPairs += int64(len(l))
		}
	}
	return nil
}

// candidatesOf returns cand(u), ascending: from the seed row when the
// caller supplied one (the predicate and out-degree filters still apply —
// they only drop nodes that cannot be in the fixpoint), through the
// snapshot's attribute indexes when there is a snapshot, by a scan of the
// live graph otherwise.
func (st *state) candidatesOf(u int, poll *cancel.Poller) ([]int32, error) {
	pred := st.p.Pred(u)
	needsOut := st.p.OutDegree(u) > 0
	if st.seed == nil && st.sweep {
		return pattern.Candidates(st.f, pred, needsOut, poll)
	}
	var out []int32
	admit := func(x int) error {
		if err := poll.Err(); err != nil {
			return err
		}
		if !(needsOut && st.g.OutDegree(x) == 0) && pred.Match(st.g.Attr(x)) {
			out = append(out, int32(x))
		}
		return nil
	}
	if st.seed != nil {
		last := int32(-1)
		for _, x := range st.seed[u] {
			if x <= last || int(x) >= st.g.N() {
				continue // out of range, duplicate or out of order
			}
			last = x
			if err := admit(int(x)); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for x := 0; x < st.g.N(); x++ {
		if err := admit(x); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cntTask is one shard of counter seeding: blocks [lo, hi) of cand(from)
// of constraint ci, sweepBlock candidates a block.
type cntTask struct {
	ci     int
	lo, hi int
}

// initCounters fills cnt[c][x] for every constraint and candidate x of
// its obligated node and seeds the worklist with already-dead pairs,
// sharded over (constraint, block span) — the O(|Ep||V|²) probes that
// dominate Theorem 3.1's bound, or the sweeps that replace them. cnt rows
// are per constraint, block spans disjoint and a witness matrix is
// written one word column per block, so writes never collide; inMat is
// read-only here.
func (st *state) initCounters(probers []*prober) error {
	nc := len(st.cons)
	st.cnt = make([][]int32, nc)
	st.wit = make([]*witnessMatrix, nc)
	st.pos = make([]*positions, st.p.N())
	witnessBytes := witnessCap() // what the query may still spend on matrices
	var tasks []cntTask
	for ci, c := range st.cons {
		from, to := len(st.cand[c.from]), len(st.cand[c.to])
		st.cnt[ci] = make([]int32, from)
		blocks := (from + sweepBlock - 1) / sweepBlock
		if st.sweepable(c) {
			// At k = 1 the adjacency already is the witness matrix.
			if size := int64(to) * int64(blocks) * 8; !oneHop(c.e) && size <= witnessBytes {
				witnessBytes -= size
				st.wit[ci] = &witnessMatrix{words: blocks, bits: make([]uint64, to*blocks)}
			} else if st.pos[c.from] == nil {
				st.pos[c.from] = getPositions(st.cand[c.from], st.frozen().N())
			}
		}
		for _, s := range shardSpans(blocks, len(probers), sweepBlock*to) {
			tasks = append(tasks, cntTask{ci, s[0], s[1]})
		}
	}
	dead := make([][]removalItem, len(tasks))
	err := runShards(probers, len(tasks), func(p *prober, t int) (err error) {
		dead[t], err = st.countBlocks(p, tasks[t])
		return err
	})
	if err != nil {
		return err
	}
	// Deterministic worklist: constraint-major, candidate-ascending,
	// whatever the worker count.
	for _, d := range dead {
		st.work = append(st.work, d...)
	}
	return nil
}

// countBlocks seeds the counters of one task and returns the obligated
// candidates whose counter stayed at zero.
func (st *state) countBlocks(p *prober, t cntTask) ([]removalItem, error) {
	con := &st.cons[t.ci]
	c, wm := st.cnt[t.ci], st.wit[t.ci]
	from, to := st.cand[con.from], st.cand[con.to]
	sweep := st.sweepable(*con)
	var dead []removalItem
	for b := t.lo; b < t.hi; b++ {
		base := b * sweepBlock
		srcs := from[base:min(base+sweepBlock, len(from))]
		c := c[base : base+len(srcs)]
		// Every member of cand(u′) is still in mat(u′): refinement has
		// not started.
		if sweep {
			if err := p.sweeper().block(srcs, *con); err != nil {
				return nil, err
			}
			for j, z := range to {
				m := p.sw.mask(z)
				if m == 0 {
					continue
				}
				if wm != nil {
					wm.bits[j*wm.words+b] = m
				}
				for ; m != 0; m &= m - 1 {
					c[bits.TrailingZeros64(m)]++
				}
			}
			p.sw.reset()
		} else {
			// Fig. 4: one probe per pair. Only swept constraints keep a
			// witness matrix.
			for i, x := range srcs {
				for _, z := range to {
					if err := p.poll.Err(); err != nil {
						return nil, err
					}
					if p.holds(con, int(x), int(z)) {
						c[i]++
					}
				}
			}
		}
		for i, n := range c {
			if n == 0 {
				dead = append(dead, removalItem{int32(con.from), int32(base + i)})
			}
		}
	}
	return dead, nil
}

// refine drains the removal worklist to the greatest fixpoint.
func (st *state) refine() error {
	for len(st.work) > 0 {
		it := st.work[len(st.work)-1]
		st.work = st.work[:len(st.work)-1]
		if err := st.remove(int(it.u), int(it.j)); err != nil {
			return err
		}
	}
	return nil
}

// remove deletes (u, x), x the j-th member of cand(u), from the relation
// and propagates counter decrements to the candidates x witnessed: for
// every constraint whose witnesses lie in cand(u) — the child constraints
// of edges entering u, and with dual the parent constraints of edges
// leaving it — the set bits of row j where the constraint kept a witness
// matrix. Where a swept constraint kept none, a k = 1 one walks x's arcs
// against its direction (Henzinger, Henzinger & Kopke's counter scheme:
// each arc once per constraint), and any other sweeps once from x against
// it (walks reverse into walks of the same length); both find the
// obligated candidates through the position scratch. Only Fig. 4's plain
// constraints probe, once per obligated candidate.
func (st *state) remove(u, j int) error {
	if !st.inMat[u][j] {
		return nil
	}
	st.inMat[u][j] = false
	if st.stats != nil {
		st.stats.Removals++
	}
	p := st.main
	x := st.cand[u][j]
	for _, ci := range st.into[u] {
		con := &st.cons[ci]
		c, alive := st.cnt[ci], st.inMat[con.from]
		drop := func(i int) {
			c[i]--
			if c[i] == 0 {
				st.work = append(st.work, removalItem{int32(con.from), int32(i)})
			}
		}
		switch wm := st.wit[ci]; {
		case wm != nil:
			for b, m := range wm.row(j) {
				for ; m != 0; m &= m - 1 {
					if err := p.poll.Err(); err != nil {
						return err
					}
					if i := b*sweepBlock + bits.TrailingZeros64(m); alive[i] {
						drop(i)
					}
				}
			}
		case !st.sweepable(*con):
			for i, xp := range st.cand[con.from] {
				if err := p.poll.Err(); err != nil {
					return err
				}
				if alive[i] && p.holds(con, int(xp), int(x)) {
					drop(i)
				}
			}
		case oneHop(con.e):
			if err := p.poll.Err(); err != nil {
				return err
			}
			pos, back := st.pos[con.from].at, !con.parent
			adj := arcs(st.f, x, back)
			if st.stats != nil {
				st.stats.SweepScans += int64(len(adj))
			}
			for _, y := range adj {
				i := pos[y] - 1
				if i >= 0 && alive[i] && (con.e.Color == "" || arcColor(st.f, x, y, back) == con.e.Color) {
					drop(int(i))
				}
			}
		default:
			rev := *con
			rev.parent = !rev.parent
			sw := p.sweeper()
			if err := sw.bounded([]int32{x}, rev); err != nil {
				return err
			}
			pos := st.pos[con.from].at
			for _, y := range sw.s.Touched {
				if i := pos[y] - 1; i >= 0 && alive[i] {
					drop(int(i))
				}
			}
			sw.reset()
		}
	}
	return nil
}

// result snapshots the current relation, each row allocated at its exact
// size: callers keep the rows (Rows), some for as long as a cache entry
// lives.
func (st *state) result() *Result {
	res := &Result{p: st.p, g: st.g, mat: make([][]int32, st.p.N()), ok: true}
	for u := 0; u < st.p.N(); u++ {
		n := 0
		for _, in := range st.inMat[u] {
			if in {
				n++
			}
		}
		if n == 0 {
			res.ok = false
			continue
		}
		row := make([]int32, 0, n)
		for j, x := range st.cand[u] {
			if st.inMat[u][j] {
				row = append(row, x)
			}
		}
		res.mat[u] = row
	}
	return res
}

// MatchNaive is the reference implementation: the textbook greatest
// fixpoint that rescans every pair until stable. It is quadratically
// slower than MatchWithOracle but independent of the counter machinery,
// so property tests can compare the two. The ablation benchmark
// BenchmarkAblationNaive quantifies the gap.
func MatchNaive(p *pattern.Pattern, g *graph.Graph, o DistOracle) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	witness := witnessFunc(g, nil, o)
	np, n := p.N(), g.N()
	sim := make([][]bool, np)
	for u := 0; u < np; u++ {
		sim[u] = make([]bool, n)
		for x := 0; x < n; x++ {
			sim[u][x] = p.Pred(u).Match(g.Attr(x))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < np; u++ {
			for x := 0; x < n; x++ {
				if !sim[u][x] {
					continue
				}
				for _, eid := range p.Out(u) {
					e := p.EdgeAt(int(eid))
					ok := false
					for z := 0; z < n; z++ {
						if sim[e.To][z] && witness(x, z, e) >= 0 {
							ok = true
							break
						}
					}
					if !ok {
						sim[u][x] = false
						changed = true
						break
					}
				}
			}
		}
	}
	res := &Result{p: p, g: g, mat: make([][]int32, np), ok: true}
	for u := 0; u < np; u++ {
		for x := 0; x < n; x++ {
			if sim[u][x] {
				res.mat[u] = append(res.mat[u], int32(x))
			}
		}
		if len(res.mat[u]) == 0 {
			res.ok = false
		}
	}
	return res, nil
}

// IsMatch verifies that rel is a bounded simulation of p in g: every pair
// satisfies its predicate and every pattern edge has an in-bound witness.
// It does not check maximality. Tests and the incremental layer use it.
func IsMatch(p *pattern.Pattern, g *graph.Graph, rel [][]int32, o DistOracle) bool {
	if len(rel) != p.N() {
		return false
	}
	witness := witnessFunc(g, nil, o)
	in := make([][]bool, p.N())
	for u := range in {
		in[u] = make([]bool, g.N())
		for _, x := range rel[u] {
			if int(x) >= g.N() {
				return false
			}
			in[u][x] = true
		}
	}
	for u := 0; u < p.N(); u++ {
		for _, x := range rel[u] {
			if !p.Pred(u).Match(g.Attr(int(x))) {
				return false
			}
			for _, eid := range p.Out(u) {
				e := p.EdgeAt(int(eid))
				found := false
				for z := 0; z < g.N(); z++ {
					if in[e.To][z] && witness(int(x), z, e) >= 0 {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
	}
	return true
}

// witnessFunc returns a probe closure answering plain edges through the
// oracle; without one, one-hop edges from x's arcs of their colour; and
// every other edge from walkLengths, recomputed whenever the source or
// the edge changes (callers fix both and vary the target). f, when
// non-nil, is a pre-frozen snapshot of g; nil freezes lazily.
func witnessFunc(g *graph.Graph, f *graph.Frozen, o DistOracle) func(x, z int, e pattern.Edge) int {
	var w *walker
	var from int
	var last pattern.Edge
	return func(x, z int, e pattern.Edge) int {
		if o != nil && !labelled(e) {
			return o.NonemptyDistWithin(x, z, e.Bound)
		}
		if f == nil {
			f = g.Freeze()
		}
		if o == nil && oneHop(e) {
			if slices.Contains(f.Out(x), int32(z)) && (e.Color == "" || f.Color(x, z) == e.Color) {
				return 1
			}
			return -1
		}
		if w == nil {
			w = newWalker(f)
		} else if x == from && e == last {
			return int(w.dist[z])
		}
		from, last = x, e
		w.walkLengths(x, e)
		return int(w.dist[z])
	}
}

// walker holds walkLengths' scratch over one snapshot, reused from one
// source to the next. Between walks dist is -1 everywhere except at the
// nodes listed in reached, and on is false everywhere except at some of
// them, so a walk is reset through that list and costs what it touches,
// not O(|V|).
type walker struct {
	f         *graph.Frozen
	dist      []int32 // walk length per node, -1 where there is none
	on        []bool  // reached so far; within one level when ranged
	reached   []int32 // the nodes whose dist the last walk set
	cur, next []int32 // frontier buffers
}

func newWalker(f *graph.Frozen) *walker {
	w := &walker{f: f, dist: make([]int32, f.N()), on: make([]bool, f.N())}
	for i := range w.dist {
		w.dist[i] = -1
	}
	return w
}

// walkLengths sets dist[y] to the length of the shortest walk from src
// to y that crosses only arcs of e's colour (any arc when it has none)
// and whose length lies in e's window — [MinBound, Bound] for a ranged
// edge, [1, Bound] otherwise — or to -1 where there is none. Without a
// lower bound the shortest such walk is a path, so a first-reach BFS
// does, and every node it marks on gets a length; with one, walks may
// revisit nodes, so each level keeps its whole frontier and clears on
// behind it. It is the per-source referee of the kernel's labelled
// sweeps and shares no code with them.
func (w *walker) walkLengths(src int, e pattern.Edge) {
	for _, y := range w.reached {
		w.dist[y] = -1
		w.on[y] = false
	}
	w.reached = w.reached[:0]
	hi := e.Bound
	if hi == pattern.Unbounded {
		hi = w.f.N() // no shortest path is longer
	}
	cur, next := append(w.cur[:0], int32(src)), w.next
	for l := 1; l <= hi && len(cur) > 0; l++ {
		next = next[:0]
		for _, x := range cur {
			for _, y := range w.f.Out(int(x)) {
				if !w.on[y] && (e.Color == "" || w.f.Color(int(x), int(y)) == e.Color) {
					w.on[y] = true
					next = append(next, y)
				}
			}
		}
		for _, y := range next {
			if l >= e.MinBound && w.dist[y] < 0 {
				w.dist[y] = int32(l)
				w.reached = append(w.reached, y)
			}
			if e.Ranged() {
				w.on[y] = false
			}
		}
		cur, next = next, cur
	}
	w.cur, w.next = cur, next
}
