package gpm

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/incremental"
	"gpm/internal/plan"
	"gpm/internal/subiso"
	"gpm/internal/topo"
)

// OracleKind names a distance-oracle strategy: the three variants the
// paper compares in Exp-2 (cmd/gpmbench runs them through
// internal/core), PLL, auto, and the "no oracle" marker. The engine
// builds and probes none of them: every query it serves answers its
// witnesses by sweeps over the graph's adjacency, so its stats and
// [Engine.OracleKind] always report OracleNone.
type OracleKind int

const (
	// OracleAuto is the daemon's -oracle setting: no oracle.
	OracleAuto OracleKind = iota
	// OracleMatrix is the all-pairs distance matrix: O(1) probes,
	// O(|V|²) memory — the paper's main Match configuration.
	OracleMatrix
	// OracleBFS answers by cached breadth-first search.
	OracleBFS
	// OracleTwoHop filters BFS through a 2-hop reachability labelling.
	OracleTwoHop
	// OraclePLL answers from a pruned-landmark distance labelling
	// (Akiba–Iwata–Yoshida).
	OraclePLL
	// OracleNone marks queries that use no distance oracle: every query
	// the engine serves.
	OracleNone
)

// String names the kind; gpmd reports it in its "oracle" fields.
func (k OracleKind) String() string {
	switch k {
	case OracleAuto:
		return "auto"
	case OracleMatrix:
		return "matrix"
	case OracleBFS:
		return "bfs"
	case OracleTwoHop:
		return "2hop"
	case OraclePLL:
		return "pll"
	case OracleNone:
		return "none"
	}
	return fmt.Sprintf("OracleKind(%d)", int(k))
}

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	workers int
}

// WithOracle names a distance-oracle kind. It panics on a kind that
// names no strategy (OracleNone, or out of range) and otherwise has no
// effect.
//
// Deprecated: no effect. The engine builds and probes no distance
// oracle under any kind: bounded, "*", coloured and ranged queries are
// all answered by witness sweeps over the graph's adjacency, and its
// memory stays O(|V|+|E|). The paper's Exp-2 oracle comparison runs
// through internal/core (cmd/gpmbench -exp 6e).
func WithOracle(k OracleKind) EngineOption {
	if k < OracleAuto || k >= OracleNone {
		panic(fmt.Sprintf("gpm: WithOracle(%v) is not a valid engine oracle strategy", k))
	}
	return func(*engineConfig) {}
}

// WithAutoOracle is WithOracle(OracleAuto).
//
// Deprecated: no effect; see [WithOracle].
func WithAutoOracle() EngineOption { return WithOracle(OracleAuto) }

// WithWorkers sets the engine's matching parallelism: the number of
// goroutines one relation query shards its fixpoint initialisation across,
// and the fan-out of MatchBatch. n <= 0 (and the default) means
// GOMAXPROCS. WithWorkers(1) pins fully sequential matching — the
// reference behavior the differential tests compare against; any worker
// count produces bit-identical results (the greatest fixpoint is unique).
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// MatchStats instruments one engine query: the matching time proper and
// the work counters of the fixpoint. The oracle fields stay for the
// wire's sake; the engine builds and probes no oracle, so they always
// read OracleNone and zero.
type MatchStats struct {
	Oracle        OracleKind    // always OracleNone
	OracleBuild   time.Duration // always zero
	MatchTime     time.Duration // fixpoint / enumeration time
	OracleQueries int64         // always zero
	SweepScans    int64         // adjacency entries scanned by witness sweeps and removals
	Removals      int64         // pairs removed during refinement
	InitialPairs  int64         // candidate pairs before refinement
}

// EnumerationResult is a subgraph-isomorphism enumeration with its query
// stats.
type EnumerationResult struct {
	*Enumeration
	Stats MatchStats
}

// CountResult is an embedding count (see [Engine.CountEmbeddings]) with
// its query stats.
type CountResult struct {
	Count    int64 // number of embeddings
	Steps    int64 // search-tree nodes explored
	Complete bool  // false when a budget or cancellation cut the count short
	// Automorphisms is the pattern's automorphism-group size the planner
	// exploited (each explored canonical embedding stands for this many;
	// 1 when unplanned).
	Automorphisms int
	Stats         MatchStats
}

// WatchDelta pairs a watcher with the effect one Update batch had on its
// maintained match.
type WatchDelta struct {
	Watcher *Watcher
	Delta   UpdateDelta
}

// Engine binds a data graph once and serves every matching semantics the
// package implements against it: bounded, plain, dual and strong
// simulation ([Engine.RelationQuery]), subgraph-isomorphism enumeration
// ([Engine.Enumerate]), and incremental matching under edge
// updates ([Engine.Watch], [Engine.WatchSim], [Engine.WatchDual],
// [Engine.WatchStrong] / [Engine.Update]). It builds no distance oracle:
// every witness is found by a sweep over a frozen CSR snapshot of the
// graph, taken on the first query and cached until an effective update,
// so concurrent and repeated queries share it.
//
// An Engine is safe for concurrent use: queries may run in parallel with
// each other, and Update excludes them while it mutates the graph. The
// bound graph must not be mutated except through [Engine.Update].
type Engine struct {
	g       *Graph
	workers int // resolved; >= 1

	// mu orders queries (read side) against Update/Watch (write side).
	// freezeMu serialises the lazy freeze, which runs under the read side
	// so concurrent queries don't freeze twice.
	mu       sync.RWMutex
	freezeMu sync.Mutex

	dm       *incremental.DynMatrix       // bounded watchers' matrix; guarded by mu (write side)
	fz       atomic.Pointer[graph.Frozen] // CSR snapshot; dropped on Update
	watchers []*Watcher                   // guarded by mu (write side)

	// gen is the monotone structural version of the bound graph: bumped
	// by Update exactly when a batch has a net effect, mirroring the
	// engine's own cache invalidation (a no-op batch changes nothing, so
	// relations keyed by the old generation stay valid). See Generation.
	gen atomic.Uint64
}

// NewEngine binds g. The graph must outlive the engine and, from then
// on, be mutated only through [Engine.Update].
func NewEngine(g *Graph, opts ...EngineOption) *Engine {
	var cfg engineConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{g: g, workers: workers}
}

// Graph returns the bound data graph. Treat it as read-only; mutate only
// through [Engine.Update].
func (e *Engine) Graph() *Graph { return e.g }

// Size reports the bound graph's current node and edge counts, ordered
// against concurrent [Engine.Update] calls (reading Graph().M() directly
// would race with an in-flight update batch).
func (e *Engine) Size() (nodes, edges int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g.N(), e.g.M()
}

// OracleKind reports OracleNone: the engine owns no distance oracle.
func (e *Engine) OracleKind() OracleKind { return OracleNone }

// Workers reports the resolved matching parallelism (see WithWorkers).
func (e *Engine) Workers() int { return e.workers }

// Generation returns the monotone structural version of the bound graph.
// It advances exactly when an [Engine.Update] batch has a net structural
// effect — empty and insert-then-delete batches leave it unchanged, just
// as they leave the engine's internal caches intact — so an external
// result cache may key entries by (graph, generation) and treat them as
// valid for as long as the generation stands. [Engine.RelationQuery]
// reports the generation it ran under, read inside the query's lock.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// frozen returns the engine's cached immutable CSR snapshot of the bound
// graph, freezing it on first use. Must be called with mu read-held; the
// snapshot is dropped by Update and lazily rebuilt.
func (e *Engine) frozen() *graph.Frozen {
	if f := e.fz.Load(); f != nil {
		return f
	}
	e.freezeMu.Lock()
	defer e.freezeMu.Unlock()
	f := e.fz.Load()
	if f == nil {
		f = e.g.Freeze()
		e.fz.Store(f)
	}
	return f
}

// ensureDM returns the bounded watchers' shared maintained graph+matrix
// pair, building it on first use. Callers hold the mu write lock.
func (e *Engine) ensureDM() *incremental.DynMatrix {
	if e.dm == nil {
		if testHookOracleBuild != nil {
			testHookOracleBuild(OracleMatrix)
		}
		e.dm = incremental.NewDynMatrix(e.g)
	}
	return e.dm
}

// testHookOracleBuild, when non-nil, runs at the start of every index
// construction the engine performs — only the bounded watchers'
// distance matrix is left — with the kind it builds. Tests use it to
// prove that queries build nothing.
var testHookOracleBuild func(OracleKind)

// RelSemantics identifies one of the four relation-valued matching
// semantics the engine serves through one internal query path.
type RelSemantics int

const (
	// RelMatch is bounded simulation — the paper's cubic-time Match.
	RelMatch RelSemantics = iota
	// RelSim is plain graph simulation (all bounds 1).
	RelSim
	// RelDual is dual simulation (child + parent constraints).
	RelDual
	// RelStrong is strong simulation (dual inside diameter balls).
	RelStrong
)

// String names the semantics the way the server routes spell it.
func (s RelSemantics) String() string {
	switch s {
	case RelMatch:
		return "match"
	case RelSim:
		return "sim"
	case RelDual:
		return "dual"
	case RelStrong:
		return "strong"
	}
	return fmt.Sprintf("RelSemantics(%d)", int(s))
}

// ParseRelSemantics recognises the four relation-semantics names.
func ParseRelSemantics(s string) (RelSemantics, error) {
	switch s {
	case "match":
		return RelMatch, nil
	case "sim":
		return RelSim, nil
	case "dual":
		return RelDual, nil
	case "strong":
		return RelStrong, nil
	}
	return 0, fmt.Errorf("gpm: unknown relation semantics %q (want match, sim, dual or strong)", s)
}

// RelationQuery describes one relation-valued query: bounded simulation
// (RelMatch, the paper's Match), plain simulation (RelSim), dual or strong
// simulation (RelDual, RelStrong) of Pattern against the bound graph.
type RelationQuery struct {
	Semantics RelSemantics
	Pattern   *Pattern

	// Seed, when non-nil, restricts each pattern node's initial candidate
	// set to the given data nodes instead of scanning the whole graph
	// (one slice per pattern node). The caller guarantees the seed is a
	// superset of the true relation — typically the filtered relation of
	// a containing pattern (see pattern containment in internal/pattern):
	// the greatest fixpoint inside any such superset is exactly the
	// maximum relation, so seeded answers are bit-identical to unseeded
	// ones. Strong simulation does not support seeding (its ball
	// extraction is not a plain fixpoint).
	Seed [][]int32
}

// RelationResult is the outcome of [Engine.RelationQuery]: the relation
// rows (ascending data-node ids per pattern node, owned by the caller),
// whether every pattern node matched, the graph generation the query
// observed (see [Engine.Generation]) and the query stats. When OK is
// false the rows are the fixpoint's remainder, useful for diagnostics;
// the maximum relation itself is empty.
type RelationResult struct {
	Relation   [][]int32
	OK         bool
	Generation uint64
	Stats      MatchStats
}

// Pairs returns |S|, the number of (pattern node, data node) pairs in
// the relation.
func (r *RelationResult) Pairs() int {
	total := 0
	for _, row := range r.Relation {
		total += len(row)
	}
	return total
}

// RelationQuery runs one relation-valued query. Match, sim and dual run
// one fixpoint kernel over the engine's cached snapshot, its witnesses
// found by sweeps over the graph's adjacency (the fixpoint's
// initialisation shards across the engine's workers, see WithWorkers);
// sim and dual need every pattern edge bound to be 1, and dual adds the
// parent constraints that preserve the pattern's parent topology (Ma et
// al., "Capturing Topology in Graph Pattern Matching", VLDB 2012).
// Strong simulation evaluates dual simulation inside diameter-bounded
// balls around candidate centers, keeping only maximum perfect subgraphs,
// its balls fanned across the workers. Every worker count returns
// bit-identical relations. Cancelling ctx aborts the query with
// ctx.Err().
//
// The Generation in the result is read under the same lock as the query
// itself, so a cache may key the answer by it without racing concurrent
// updates.
func (e *Engine) RelationQuery(ctx context.Context, q RelationQuery) (*RelationResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q.Seed != nil {
		if q.Semantics == RelStrong {
			return nil, fmt.Errorf("gpm: strong simulation does not support seeded queries")
		}
		if len(q.Seed) != q.Pattern.N() {
			return nil, fmt.Errorf("gpm: seed has %d rows for a %d-node pattern", len(q.Seed), q.Pattern.N())
		}
		q.Seed = normalizeSeed(q.Seed, e.g.N())
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.relation(ctx, q, e.frozen(), e.workers)
}

// normalizeSeed returns a copy of seed with every row ascending, deduped
// and clipped to [0, n) — the form the fixpoint initialisers require.
func normalizeSeed(seed [][]int32, n int) [][]int32 {
	out := make([][]int32, len(seed))
	for u, row := range seed {
		r := append([]int32(nil), row...)
		sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
		dst := r[:0]
		for i, x := range r {
			if x < 0 || int(x) >= n || (i > 0 && x == r[i-1]) {
				continue
			}
			dst = append(dst, x)
		}
		out[u] = dst
	}
	return out
}

// relation is the per-query body behind RelationQuery and every
// MatchBatch lane: one query over snapshot f with the given fixpoint
// parallelism. Callers hold mu read-side across it, so the generation it
// reads is exactly the graph version the relation describes. The
// returned rows are the fixpoint's own, fresh per query.
func (e *Engine) relation(ctx context.Context, q RelationQuery, f *graph.Frozen, workers int) (*RelationResult, error) {
	p := q.Pattern
	switch q.Semantics {
	case RelMatch, RelStrong:
	case RelSim, RelDual:
		// No oracle: every witness is a single arc.
		if !p.AllBoundsOne() {
			return nil, fmt.Errorf("gpm: %v simulation is edge-to-edge: pattern has a bound != 1", q.Semantics)
		}
	default:
		return nil, fmt.Errorf("gpm: unknown relation semantics %v", q.Semantics)
	}
	res := &RelationResult{Generation: e.gen.Load(), Stats: MatchStats{Oracle: OracleNone}}
	start := time.Now()
	if q.Semantics == RelStrong {
		rel, ok, err := topo.StrongSim(ctx, p, f, topo.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		res.Relation, res.OK = rel, ok
	} else {
		var cs core.Stats
		cr, err := core.MatchOpts(ctx, p, e.g, nil, &cs, core.MatchOptions{
			Workers: workers,
			Frozen:  f,
			Seed:    q.Seed,
			Dual:    q.Semantics == RelDual,
		})
		if err != nil {
			return nil, err
		}
		res.Relation, res.OK = cr.Rows(), cr.OK()
		res.Stats.SweepScans, res.Stats.Removals, res.Stats.InitialPairs = cs.SweepScans, cs.Removals, cs.InitialPairs
	}
	res.Stats.MatchTime = time.Since(start)
	return res, nil
}

// MatchBatch computes the maximum bounded-simulation match of every
// pattern in ps against the bound graph, fanning the batch across the
// engine's workers (see WithWorkers) over the shared cached snapshot.
// Results align positionally with ps; each is what RelationQuery with
// RelMatch returns.
//
// Inside a batch each query runs its fixpoint sequentially when the
// batch itself saturates the workers; a batch smaller than the worker
// count hands the spare workers to per-query sharding. Cancelling ctx
// aborts outstanding queries and returns ctx.Err(); the whole batch
// fails on the first query error.
func (e *Engine) MatchBatch(ctx context.Context, ps []*Pattern) ([]*RelationResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ps) == 0 {
		return nil, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	f := e.frozen()
	fanout := e.workers
	if fanout > len(ps) {
		fanout = len(ps)
	}
	// Split the worker budget across the fan-out lanes; the first
	// e.workers%fanout lanes take the remainder so no worker idles.
	perQuery := e.workers / fanout
	extra := e.workers % fanout
	if perQuery < 1 {
		perQuery = 1
		extra = 0
	}
	ctx, cancelBatch := context.WithCancel(ctx)
	defer cancelBatch()

	results := make([]*RelationResult, len(ps))
	// The first real failure is latched before the batch is cancelled, so
	// sibling queries aborting with context.Canceled cannot mask it.
	var errOnce sync.Once
	var batchErr error
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < fanout; w++ {
		laneWorkers := perQuery
		if w < extra {
			laneWorkers++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				res, err := e.relation(ctx, RelationQuery{Semantics: RelMatch, Pattern: ps[i]}, f, laneWorkers)
				if err != nil {
					errOnce.Do(func() {
						batchErr = err
						cancelBatch()
					})
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range ps {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	if batchErr != nil {
		return nil, batchErr
	}
	return results, nil
}

// usePlanner reports whether Enumerate/CountEmbeddings should consult the
// query planner: it is the default, unless the caller opted out or
// brought their own plan.
func usePlanner(opts IsoOptions) bool {
	return !opts.NoPlan && opts.Order == nil && len(opts.Restrictions) == 0 && opts.ExpandPerEmbedding <= 1
}

// Enumerate lists subgraph-isomorphism embeddings of p (edge-to-edge
// semantics) against the bound graph; opts bounds the search and selects
// VF2 (default) or Ullmann. By default the search runs under a query plan
// (internal/plan): a cost-modelled matching order plus symmetry-breaking
// restrictions whose canonical embeddings are re-expanded through the
// pattern's automorphism group, so the reported embedding set is exactly
// the unplanned one. IsoOptions.NoPlan opts out. On cancellation it
// returns ctx.Err() alongside the partial enumeration found so far
// (Complete == false), so deadline-bounded callers keep their best-effort
// embeddings.
func (e *Engine) Enumerate(ctx context.Context, p *Pattern, opts IsoOptions) (*EnumerationResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Snapshot the CSR under the read lock, then search lock-free: a
	// single exponential enumeration must not starve Update and the
	// watchers behind the write lock.
	e.mu.RLock()
	f := e.frozen()
	e.mu.RUnlock()
	start := time.Now()
	opts.CountOnly = false
	var aut [][]int32
	if usePlanner(opts) {
		pl, err := plan.Build(p, f)
		if err != nil {
			return nil, err
		}
		opts.Order, opts.Restrictions = pl.Order, pl.Restrictions
		opts.ExpandPerEmbedding = len(pl.Aut)
		aut = pl.Aut
	}
	enum, err := subiso.EnumerateFrozen(ctx, p, f, opts)
	if enum == nil {
		return nil, err
	}
	if len(aut) > 1 {
		enum.Embeddings = plan.Expand(enum.Embeddings, aut)
		limit := opts.MaxEmbeddings
		if limit <= 0 {
			limit = 1<<31 - 1
		}
		if len(enum.Embeddings) > limit {
			enum.Embeddings = enum.Embeddings[:limit]
			enum.Complete = false
		}
	}
	enum.Count = int64(len(enum.Embeddings))
	return &EnumerationResult{Enumeration: enum, Stats: MatchStats{
		Oracle:    OracleNone,
		MatchTime: time.Since(start),
	}}, err
}

// CountEmbeddings counts the subgraph-isomorphism embeddings of p without
// materialising them. Under the default plan the search enumerates one
// canonical embedding per automorphism orbit and multiplies by |Aut|, and
// switches to inclusion-exclusion over the independent tail of the
// matching order — often orders of magnitude cheaper than
// len(Enumerate(...)). MaxEmbeddings is ignored; MaxSteps and ctx still
// bound the search (partial counts come back with Complete == false, and
// ctx.Err() alongside on cancellation).
func (e *Engine) CountEmbeddings(ctx context.Context, p *Pattern, opts IsoOptions) (*CountResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	f := e.frozen()
	e.mu.RUnlock()
	start := time.Now()
	opts.CountOnly = true
	opts.MaxEmbeddings = 0
	factor := 1
	if usePlanner(opts) {
		pl, err := plan.Build(p, f)
		if err != nil {
			return nil, err
		}
		opts.Order, opts.Restrictions = pl.Order, pl.Restrictions
		opts.ExpandPerEmbedding = len(pl.Aut)
		factor = len(pl.Aut)
	}
	enum, err := subiso.EnumerateFrozen(ctx, p, f, opts)
	if enum == nil {
		return nil, err
	}
	return &CountResult{
		Count:         enum.Count,
		Steps:         enum.Steps,
		Complete:      enum.Complete,
		Automorphisms: factor,
		Stats: MatchStats{
			Oracle:    OracleNone,
			MatchTime: time.Since(start),
		},
	}, err
}

// EnumerationPlan returns the plan Enumerate and CountEmbeddings would
// run p under: matching order, symmetry-breaking restrictions and the
// automorphism group (gpmatch -plan surfaces it).
func (e *Engine) EnumerationPlan(p *Pattern) (*EnumPlan, error) {
	e.mu.RLock()
	f := e.frozen()
	e.mu.RUnlock()
	return plan.Build(p, f)
}

// ResultGraph materialises the succinct result graph (§2.2) of a
// relation res this engine computed for p — bounded simulation as well
// as dual and strong simulation. One-hop witnesses are read off the
// cached snapshot's adjacency and longer ones off one walk per matched
// source.
func (e *Engine) ResultGraph(p *Pattern, res *RelationResult) *ResultGraph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return core.BuildResultGraphFrozen(core.NewResult(p, e.g, res.Relation, res.OK), nil, e.frozen())
}

// Watch starts maintaining the maximum bounded-simulation match of p
// incrementally (the paper's IncMatch). All bounded watchers share one
// maintained distance matrix; feed edge updates through [Engine.Update] and
// every watcher absorbs the same distance changes. Close a watcher to
// stop paying its maintenance.
func (e *Engine) Watch(p *Pattern) (*Watcher, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, err := incremental.NewMatcher(p, e.ensureDM())
	if err != nil {
		return nil, err
	}
	return e.register(m, true), nil
}

// WatchSim starts maintaining the maximum plain-simulation relation of p
// (every edge bound must be 1, no edge colors) incrementally: the
// fixpoint's witness counters stay alive between updates and each Update
// batch propagates deltas through them instead of re-running the
// fixpoint. Unlike bounded watchers, sim/dual/strong watchers maintain
// no distance matrix, so they cost no O(|V|²) memory.
func (e *Engine) WatchSim(p *Pattern) (*Watcher, error) {
	return e.watchIncSim(p, true)
}

// WatchDual is WatchSim for the maximum dual-simulation relation (Ma et
// al., VLDB 2012): both child and parent witness counters are maintained
// between updates.
func (e *Engine) WatchDual(p *Pattern) (*Watcher, error) {
	return e.watchIncSim(p, false)
}

func (e *Engine) watchIncSim(p *Pattern, childOnly bool) (*Watcher, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, err := incremental.NewSimMatcher(p, e.g, childOnly)
	if err != nil {
		return nil, err
	}
	return e.register(m, false), nil
}

// WatchStrong starts maintaining the strong-simulation relation of p
// (every edge bound must be 1, no edge colors) incrementally: per-ball
// contributions are stored, and an Update batch re-evaluates only the
// balls within the pattern's diameter of a touched node, fanning them
// across the engine's workers (see WithWorkers). The maintained relation
// is bit-identical to a [RelStrong] [Engine.RelationQuery] at every
// worker count.
func (e *Engine) WatchStrong(p *Pattern) (*Watcher, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, err := incremental.NewStrongMatcher(p, e.g, e.workers)
	if err != nil {
		return nil, err
	}
	return e.register(m, false), nil
}

// register enrolls a maintainer in the watcher registry. Callers hold
// the mu write lock.
func (e *Engine) register(m incremental.Maintainer, needsMatrix bool) *Watcher {
	w := &Watcher{e: e, m: m, needsMatrix: needsMatrix}
	e.watchers = append(e.watchers, w)
	return w
}

// Update applies a batch of edge updates to the bound graph, cascades
// every watcher — bounded (IncMatch) and sim/dual/strong alike — and
// invalidates derived caches. It returns one delta per open watcher, in
// Watch order. On a validation error the graph is unchanged.
//
// The bounded watchers' distance matrix is kept consistent in place (the
// paper's UpdateBM) only while one of them is open; with none, updates
// pay no distance maintenance.
//
// A batch with no net structural effect (empty, or every touched edge
// inserted-then-deleted within the batch) keeps the cached frozen
// snapshot: it still describes the graph, so later queries skip the
// re-freeze.
func (e *Engine) Update(updates ...Update) ([]WatchDelta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var deltas []WatchDelta
	if e.dm != nil {
		aff, err := e.dm.Apply(updates)
		if err != nil {
			return nil, err
		}
		for _, w := range e.watchers {
			deltas = append(deltas, WatchDelta{Watcher: w, Delta: w.m.ApplyPrecomputed(aff, updates)})
		}
	} else {
		// No distance matrix maintained: structural change plus the
		// adjacency-based watchers.
		if err := incremental.ApplyToGraph(e.g, updates); err != nil {
			return nil, err
		}
		for _, w := range e.watchers {
			deltas = append(deltas, WatchDelta{Watcher: w, Delta: w.m.ApplyPrecomputed(nil, updates)})
		}
	}
	if ins, dels := incremental.NetEffects(updates); len(ins) == 0 && len(dels) == 0 {
		return deltas, nil
	}
	e.gen.Add(1)
	// The matrix was maintained in place; the frozen CSR snapshot was
	// not, so drop it for a lazy re-freeze.
	e.fz.Store(nil)
	return deltas, nil
}

// Watcher is an incrementally maintained match bound to an engine — a
// bounded-simulation match ([Engine.Watch]) or a plain/dual/strong
// simulation relation ([Engine.WatchSim], [Engine.WatchDual],
// [Engine.WatchStrong]). Its read methods are safe to call concurrently
// with engine queries; they observe the state as of the last Update.
type Watcher struct {
	e           *Engine
	m           incremental.Maintainer
	needsMatrix bool // bounded watchers keep the shared DynMatrix alive
	closed      bool
}

// Pattern returns the watched pattern.
func (w *Watcher) Pattern() *Pattern { return w.m.Pattern() }

// OK reports whether the pattern currently matches the engine's graph.
func (w *Watcher) OK() bool {
	w.e.mu.RLock()
	defer w.e.mu.RUnlock()
	return w.m.OK()
}

// Pairs returns |S|, the current size of the maintained relation.
func (w *Watcher) Pairs() int {
	w.e.mu.RLock()
	defer w.e.mu.RUnlock()
	return w.m.Pairs()
}

// Mat returns the sorted data nodes currently matching pattern node u.
func (w *Watcher) Mat(u int) []int32 {
	w.e.mu.RLock()
	defer w.e.mu.RUnlock()
	return w.m.Mat(u)
}

// Relation snapshots the whole maintained relation.
func (w *Watcher) Relation() [][]int32 {
	w.e.mu.RLock()
	defer w.e.mu.RUnlock()
	return w.m.Relation()
}

// Close unregisters the watcher from its engine; subsequent Updates no
// longer maintain it. When the last bounded watcher closes, the shared
// distance matrix is released too, so Updates stop paying its
// maintenance and the O(|V|²) memory is freed — sim/dual/strong
// watchers never pin it. Closing twice is a no-op.
func (w *Watcher) Close() {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for i, o := range w.e.watchers {
		if o == w {
			w.e.watchers = append(w.e.watchers[:i], w.e.watchers[i+1:]...)
			break
		}
	}
	matrixNeeded := false
	for _, o := range w.e.watchers {
		if o.needsMatrix {
			matrixNeeded = true
			break
		}
	}
	if !matrixNeeded {
		w.e.dm = nil
	}
}
