package gpm

import (
	"context"
	"errors"
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
	"gpm/internal/pll"
	"gpm/internal/subiso"
	"gpm/internal/topo"
	"gpm/internal/twohop"
)

// OracleKind identifies a distance-oracle strategy — the three variants
// the paper compares in Exp-2, plus the auto heuristic and the "no
// oracle" marker for queries that never probe distances.
type OracleKind int

const (
	// OracleAuto picks a concrete kind from |V| when the engine binds its
	// graph: the matrix up to 4096 nodes, BFS above (see
	// resolveOracleKind). It never builds a labelling.
	OracleAuto OracleKind = iota
	// OracleMatrix precomputes the all-pairs distance matrix: O(1)
	// queries, O(|V|²) memory — the paper's main Match configuration.
	OracleMatrix
	// OracleBFS answers by cached breadth-first search: no
	// preprocessing, O(|V|) memory, slower queries.
	OracleBFS
	// OracleTwoHop filters BFS through a 2-hop reachability labelling.
	OracleTwoHop
	// OraclePLL answers from a pruned-landmark distance labelling
	// (Akiba–Iwata–Yoshida): exact distances in label-merge time with
	// memory that scales with the graph's hub structure instead of
	// |V|². Opt-in only: the Exp-2 and million-node baseline.
	OraclePLL
	// OracleNone marks queries that use no distance oracle (plain
	// simulation, subgraph-isomorphism enumeration).
	OracleNone
)

// String names the kind the way cmd/gpmatch's -algo flag spells it.
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

// Threshold for OracleAuto. A distance matrix costs 4·|V|² bytes, so it
// is reserved for graphs where that is at most ~64 MB.
const autoMatrixMaxNodes = 4096

// resolveOracleKind resolves OracleAuto. Past the matrix threshold it
// picks BFS, which builds nothing: the fixpoint prices a BFS probe at a
// whole traversal, so every witness sweeps over the frozen snapshot, and
// a removal never probes, whether or not the witness-matrix cap binds
// (BenchmarkMatchPastWitnessCap). No labelling is built up front or
// rebuilt after an update.
func resolveOracleKind(k OracleKind, g *Graph) OracleKind {
	if k != OracleAuto {
		return k
	}
	if g.N() <= autoMatrixMaxNodes {
		return OracleMatrix
	}
	return OracleBFS
}

// ErrGraphTooLarge reports that the bound graph's node count exceeds
// the configured oracle strategy's addressing limit (PLL labels hold
// hub ids in 24 bits). Queries against such an engine fail with an
// error wrapping this sentinel instead of panicking, so a daemon
// serving many graphs survives one oversized binding.
var ErrGraphTooLarge = errors.New("graph too large for the configured distance oracle")

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	kind    OracleKind
	workers int
}

// WithOracle fixes the engine's distance-oracle strategy. The default is
// OracleMatrix, the paper's main configuration. Valid kinds are
// OracleAuto, OracleMatrix, OracleBFS, OracleTwoHop and OraclePLL;
// NewEngine panics on anything else (OracleNone marks oracle-less
// queries in MatchStats, it is not a strategy). Forcing OraclePLL on a
// graph with more nodes than PLL labels can address does not panic:
// the engine binds, and oracle-backed queries fail with an error
// wrapping [ErrGraphTooLarge].
func WithOracle(k OracleKind) EngineOption {
	return func(c *engineConfig) { c.kind = k }
}

// WithAutoOracle lets the engine pick the oracle from the bound graph's
// size — equivalent to WithOracle(OracleAuto): the distance matrix up
// to 4096 nodes, BFS above. Past the threshold bounded queries are
// answered by witness sweeps over the graph's adjacency, coloured edges
// included, so the engine builds no index at all.
func WithAutoOracle() EngineOption {
	return func(c *engineConfig) { c.kind = OracleAuto }
}

// WithWorkers sets the engine's matching parallelism: the number of
// goroutines one Match query shards its fixpoint initialisation across,
// and the fan-out of MatchBatch. n <= 0 (and the default) means
// GOMAXPROCS. WithWorkers(1) pins fully sequential matching — the
// reference behavior the differential tests compare against; any worker
// count produces bit-identical results (the greatest fixpoint is unique).
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) { c.workers = n }
}

// MatchStats instruments one engine query: which oracle served it, how
// much shared-index construction the call paid for (zero on a cache
// hit), the matching time proper, and the work counters of the fixpoint.
type MatchStats struct {
	Oracle        OracleKind    // oracle kind that served the query
	OracleBuild   time.Duration // shared-index build time charged to this call
	MatchTime     time.Duration // fixpoint / enumeration time, excluding OracleBuild
	OracleQueries int64         // distance-oracle probes issued
	SweepScans    int64         // adjacency entries scanned by witness sweeps and removals
	Removals      int64         // pairs removed during refinement
	InitialPairs  int64         // candidate pairs before refinement
}

// MatchResult is a bounded-simulation match with its query stats.
type MatchResult struct {
	*Result
	Stats MatchStats
}

// SimulationResult is a plain-simulation outcome with its query stats.
type SimulationResult struct {
	Relation [][]int32 // per pattern node, sorted matching data nodes
	OK       bool      // every pattern node matched
	Stats    MatchStats
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

// TopoResult is a dual- or strong-simulation outcome with its query
// stats (see [Engine.DualSimulate] and [Engine.StrongSimulate]). It
// embeds [Result], so it carries the full relation accessor set and can
// be materialised as a result graph through [Engine.ResultGraphOf].
type TopoResult struct {
	*Result
	Stats MatchStats
}

// WatchDelta pairs a watcher with the effect one Update batch had on its
// maintained match.
type WatchDelta struct {
	Watcher *Watcher
	Delta   UpdateDelta
}

// Engine binds a data graph once and serves every matching semantics the
// package implements against it: bounded simulation ([Engine.Match]),
// plain simulation ([Engine.Simulate]), dual and strong simulation
// ([Engine.DualSimulate], [Engine.StrongSimulate]), subgraph-isomorphism
// enumeration ([Engine.Enumerate]), and incremental matching under edge
// updates ([Engine.Watch], [Engine.WatchSim], [Engine.WatchDual],
// [Engine.WatchStrong] / [Engine.Update]). The distance oracle is built
// lazily on the first query that needs it and cached, so concurrent and
// repeated queries share one preprocessing pass instead of re-paying it
// per call.
//
// An Engine is safe for concurrent use: queries may run in parallel with
// each other, and Update excludes them while it mutates the graph. The
// bound graph must not be mutated except through [Engine.Update].
type Engine struct {
	g       *Graph
	kind    OracleKind // resolved; never OracleAuto
	workers int        // resolved; >= 1
	confErr error      // deferred bind-time config error; fails oracle queries

	// mu orders queries (read side) against Update/Watch (write side).
	// buildMu serialises lazy index construction, which runs under the
	// read side so concurrent queries don't build twice.
	mu      sync.RWMutex
	buildMu sync.Mutex

	mo       atomic.Pointer[core.MatrixOracle]     // kind == OracleMatrix
	idx      atomic.Pointer[twohop.Index]          // kind == OracleTwoHop
	po       atomic.Pointer[core.PLLOracle]        // kind == OraclePLL; root oracle, cloned per query
	dm       atomic.Pointer[incremental.DynMatrix] // shared matrix maintenance
	fz       atomic.Pointer[graph.Frozen]          // CSR snapshot; dropped on Update
	watchers []*Watcher                            // guarded by mu (write side)

	// gen is the monotone structural version of the bound graph: bumped
	// by Update exactly when a batch has a net effect, mirroring the
	// engine's own cache invalidation (a no-op batch changes nothing, so
	// relations keyed by the old generation stay valid). See Generation.
	gen atomic.Uint64
}

// NewEngine binds g. The graph must outlive the engine and, from then
// on, be mutated only through [Engine.Update].
func NewEngine(g *Graph, opts ...EngineOption) *Engine {
	cfg := engineConfig{kind: OracleMatrix}
	for _, opt := range opts {
		opt(&cfg)
	}
	var confErr error
	switch cfg.kind {
	case OracleAuto, OracleMatrix, OracleBFS, OracleTwoHop:
	case OraclePLL:
		if g.N() > pll.MaxNodes {
			// Deferred, not panicked: a daemon binding graphs on behalf
			// of clients must survive an oversized one. The first query
			// that needs the oracle surfaces this error.
			confErr = fmt.Errorf("gpm: WithOracle(OraclePLL) on a %d-node graph; PLL labels address at most %d nodes: %w",
				g.N(), pll.MaxNodes, ErrGraphTooLarge)
		}
	default:
		panic(fmt.Sprintf("gpm: WithOracle(%v) is not a valid engine oracle strategy", cfg.kind))
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{g: g, kind: resolveOracleKind(cfg.kind, g), workers: workers, confErr: confErr}
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

// OracleKind reports the resolved oracle strategy (never OracleAuto:
// WithAutoOracle resolves against the graph at bind time).
func (e *Engine) OracleKind() OracleKind { return e.kind }

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
// graph, freezing it on first use. Must be called with mu read-held and
// buildMu NOT held; the snapshot is dropped by Update and lazily rebuilt.
func (e *Engine) frozen() *graph.Frozen {
	if f := e.fz.Load(); f != nil {
		return f
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	return e.frozenLocked()
}

// frozenLocked is frozen for callers already holding buildMu.
func (e *Engine) frozenLocked() *graph.Frozen {
	f := e.fz.Load()
	if f == nil {
		f = e.g.Freeze()
		e.fz.Store(f)
	}
	return f
}

// ensureDM returns the shared maintained graph+matrix pair, building it
// on first use. Callers must hold either buildMu (with mu read-held) or
// the mu write lock; the two cannot overlap.
func (e *Engine) ensureDM() *incremental.DynMatrix {
	if dm := e.dm.Load(); dm != nil {
		return dm
	}
	dm := incremental.NewDynMatrix(e.g)
	e.dm.Store(dm)
	return dm
}

// testHookPLLBuild, when non-nil, runs at the start of every PLL index
// construction the engine performs. Tests use it to count builds and
// prove the lazy path is single-flight under concurrent first queries.
var testHookPLLBuild func()

// queryOracle returns a DistOracle ready for one query, building the
// shared index if this is the first query to need it. Must be called
// with mu read-held. The returned duration is the index build time this
// call paid (zero on a cache hit). Cancelling ctx aborts an in-flight
// index build with ctx.Err(); a deferred bind-time configuration error
// (see WithOracle) also surfaces here.
func (e *Engine) queryOracle(ctx context.Context) (DistOracle, time.Duration, error) {
	if e.confErr != nil {
		return nil, 0, e.confErr
	}
	switch e.kind {
	case OracleBFS:
		// No shared index: a BFS oracle is its own per-query cache. It
		// does share the engine's frozen snapshot, so repeated queries
		// skip the O(|V|+|E|) freeze.
		return core.NewBFSOracleFrozen(e.frozen()), 0, nil
	case OracleTwoHop:
		if idx := e.idx.Load(); idx != nil {
			return core.NewTwoHopOracleFrozen(e.frozen(), idx), 0, nil
		}
		e.buildMu.Lock()
		defer e.buildMu.Unlock()
		idx := e.idx.Load()
		var built time.Duration
		if idx == nil {
			start := time.Now()
			idx = twohop.Build(e.g)
			built = time.Since(start)
			e.idx.Store(idx)
		}
		return core.NewTwoHopOracleFrozen(e.frozenLocked(), idx), built, nil
	case OraclePLL:
		// The root oracle (the shared labelling) is cached; every query
		// takes a clone with fresh probe caches, since those are
		// single-goroutine state.
		if po := e.po.Load(); po != nil {
			return po.CloneForWorker(), 0, nil
		}
		e.buildMu.Lock()
		defer e.buildMu.Unlock()
		po := e.po.Load()
		var built time.Duration
		if po == nil {
			if testHookPLLBuild != nil {
				testHookPLLBuild()
			}
			start := time.Now()
			f := e.frozenLocked()
			opts := pll.AutoOptions(f)
			opts.Workers = e.workers
			idx, err := pll.Build(ctx, f, opts)
			if err != nil {
				// Cancellation: the next query retries the build.
				return nil, 0, err
			}
			po = core.NewPLLOracleFrozen(f, idx)
			built = time.Since(start)
			e.po.Store(po)
		}
		return po.CloneForWorker(), built, nil
	default: // OracleMatrix
		if mo := e.mo.Load(); mo != nil {
			return mo, 0, nil
		}
		e.buildMu.Lock()
		defer e.buildMu.Unlock()
		mo := e.mo.Load()
		var built time.Duration
		if mo == nil {
			start := time.Now()
			// Build the matrix through the shared DynMatrix so Update
			// keeps it consistent in place.
			mo = core.NewMatrixOracle(e.g, e.ensureDM().Matrix())
			built = time.Since(start)
			e.mo.Store(mo)
		}
		return mo, built, nil
	}
}

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

// RelationQuery describes one relation-valued query — the shared
// descriptor behind [Engine.Match], [Engine.Simulate],
// [Engine.DualSimulate] and [Engine.StrongSimulate].
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

// RelationResult is the uniform outcome of [Engine.RelationQuery]: the
// relation rows (fresh copies, ascending data-node ids per pattern
// node), whether every pattern node matched, the graph generation the
// query observed (see [Engine.Generation]) and the query stats.
type RelationResult struct {
	Relation   [][]int32
	OK         bool
	Generation uint64
	Stats      MatchStats
}

// RelationQuery runs one relation-valued query through the engine's
// unified dispatch. The Generation in the result is read under the same
// lock as the query itself, so a cache may key the answer by it without
// racing concurrent updates.
func (e *Engine) RelationQuery(ctx context.Context, q RelationQuery) (*RelationResult, error) {
	if q.Seed != nil {
		q.Seed = normalizeSeed(q.Seed, e.g.N())
	}
	res, stats, gen, err := e.relationQuery(ctx, q)
	if err != nil {
		return nil, err
	}
	return &RelationResult{Relation: res.Relation(), OK: res.OK(), Generation: gen, Stats: stats}, nil
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

// relationQuery is the single dispatch behind the four relation-valued
// semantics. Match, sim and dual run one fixpoint kernel (core.MatchOpts):
// sim and dual without a distance oracle, dual with its parent
// constraints on. It holds the read lock across oracle acquisition, the
// fixpoint and the generation read, so the returned generation is
// exactly the graph version the relation describes.
func (e *Engine) relationQuery(ctx context.Context, q RelationQuery) (*core.Result, MatchStats, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, MatchStats{}, 0, err
	}
	p := q.Pattern
	if q.Seed != nil {
		if q.Semantics == RelStrong {
			return nil, MatchStats{}, 0, fmt.Errorf("gpm: strong simulation does not support seeded queries")
		}
		if len(q.Seed) != p.N() {
			return nil, MatchStats{}, 0, fmt.Errorf("gpm: seed has %d rows for a %d-node pattern", len(q.Seed), p.N())
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	gen := e.gen.Load()
	stats := MatchStats{Oracle: OracleNone}
	var o DistOracle
	switch q.Semantics {
	case RelMatch:
		var err error
		if o, stats.OracleBuild, err = e.queryOracle(ctx); err != nil {
			return nil, MatchStats{}, 0, err
		}
		stats.Oracle = e.kind
	case RelSim, RelDual:
		// No oracle: every witness is a single arc.
	case RelStrong:
		start := time.Now()
		rel, ok, err := topo.StrongSim(ctx, p, e.frozen(), topo.Options{Workers: e.workers})
		if err != nil {
			return nil, MatchStats{}, 0, err
		}
		stats.MatchTime = time.Since(start)
		return core.NewResult(p, e.g, rel, ok), stats, gen, nil
	default:
		return nil, MatchStats{}, 0, fmt.Errorf("gpm: unknown relation semantics %v", q.Semantics)
	}
	var cs core.Stats
	start := time.Now()
	res, err := core.MatchOpts(ctx, p, e.g, o, &cs, core.MatchOptions{
		Workers: e.workers,
		Frozen:  e.frozen(),
		Seed:    q.Seed,
		Dual:    q.Semantics == RelDual,
	})
	if err != nil {
		return nil, MatchStats{}, 0, err
	}
	stats.MatchTime = time.Since(start)
	stats.OracleQueries, stats.SweepScans = cs.OracleQueries, cs.SweepScans
	stats.Removals, stats.InitialPairs = cs.Removals, cs.InitialPairs
	return res, stats, gen, nil
}

// Match computes the maximum bounded-simulation match of p against the
// bound graph — the paper's cubic-time Match, served from the engine's
// cached oracle. Cancelling ctx aborts the fixpoint with ctx.Err().
func (e *Engine) Match(ctx context.Context, p *Pattern) (*MatchResult, error) {
	res, stats, _, err := e.relationQuery(ctx, RelationQuery{Semantics: RelMatch, Pattern: p})
	if err != nil {
		return nil, err
	}
	return &MatchResult{Result: res, Stats: stats}, nil
}

// MatchBatch computes the maximum bounded-simulation match of every
// pattern in ps against the bound graph, fanning the batch across the
// engine's workers (see WithWorkers) over the shared cached oracle.
// Results align positionally with ps. The shared index build time, if
// this batch paid it, is charged to the first result's stats.
//
// Inside a batch each query runs its fixpoint sequentially when the
// batch itself saturates the workers; a batch smaller than the worker
// count hands the spare workers to per-query sharding. Cancelling ctx
// aborts outstanding queries and returns ctx.Err(); the whole batch
// fails on the first query error.
func (e *Engine) MatchBatch(ctx context.Context, ps []*Pattern) ([]*MatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ps) == 0 {
		return nil, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	o, built, err := e.queryOracle(ctx)
	if err != nil {
		return nil, err
	}
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

	results := make([]*MatchResult, len(ps))
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
			// Each fan-out worker probes a private clone of the shared
			// oracle (the matrix oracle is itself concurrency-safe and
			// clones to itself; BFS-backed oracles clone their frontier
			// caches but share the frozen snapshot and 2-hop labelling).
			wo := o
			if c, ok := o.(core.WorkerCloner); ok {
				wo = c.CloneForWorker()
			}
			for i := range idxCh {
				var cs core.Stats
				start := time.Now()
				res, err := core.MatchOpts(ctx, ps[i], e.g, wo, &cs, core.MatchOptions{
					Workers: laneWorkers,
					Frozen:  f,
				})
				if err != nil {
					errOnce.Do(func() {
						batchErr = err
						cancelBatch()
					})
					continue
				}
				results[i] = &MatchResult{Result: res, Stats: MatchStats{
					Oracle:        e.kind,
					MatchTime:     time.Since(start),
					OracleQueries: cs.OracleQueries,
					SweepScans:    cs.SweepScans,
					Removals:      cs.Removals,
					InitialPairs:  cs.InitialPairs,
				}}
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
	results[0].Stats.OracleBuild = built
	return results, nil
}

// Simulate computes plain graph simulation of p (every pattern edge
// bound must be 1) against the bound graph.
func (e *Engine) Simulate(ctx context.Context, p *Pattern) (*SimulationResult, error) {
	res, stats, _, err := e.relationQuery(ctx, RelationQuery{Semantics: RelSim, Pattern: p})
	if err != nil {
		return nil, err
	}
	return &SimulationResult{Relation: res.Relation(), OK: res.OK(), Stats: stats}, nil
}

// DualSimulate computes the maximum dual simulation of p (every pattern
// edge bound must be 1) against the bound graph: plain simulation
// extended with parent constraints, so both child and parent topology
// of the pattern are preserved (Ma et al., "Capturing Topology in Graph
// Pattern Matching", VLDB 2012). The fixpoint's initialisation shards
// across the engine's workers (see WithWorkers); every worker count
// returns bit-identical relations.
func (e *Engine) DualSimulate(ctx context.Context, p *Pattern) (*TopoResult, error) {
	res, stats, _, err := e.relationQuery(ctx, RelationQuery{Semantics: RelDual, Pattern: p})
	if err != nil {
		return nil, err
	}
	return &TopoResult{Result: res, Stats: stats}, nil
}

// StrongSimulate computes strong simulation of p (every pattern edge
// bound must be 1) against the bound graph: dual simulation evaluated
// inside diameter-bounded balls around candidate centers, keeping only
// maximum perfect subgraphs (Ma et al., VLDB 2012) — the strictest
// polynomial-time semantics the engine serves, preserving topology that
// plain and dual simulation lose. Ball evaluation fans out across the
// engine's workers (see WithWorkers); every worker count returns
// bit-identical relations.
func (e *Engine) StrongSimulate(ctx context.Context, p *Pattern) (*TopoResult, error) {
	res, stats, _, err := e.relationQuery(ctx, RelationQuery{Semantics: RelStrong, Pattern: p})
	if err != nil {
		return nil, err
	}
	return &TopoResult{Result: res, Stats: stats}, nil
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

// ResultGraph materialises the succinct result graph (§2.2) of a match
// this engine computed.
func (e *Engine) ResultGraph(res *MatchResult) *ResultGraph {
	return e.ResultGraphOf(res.Result)
}

// ResultGraphOf materialises the result graph of any relation-valued
// result this engine computed — bounded simulation ([Engine.Match]) as
// well as dual and strong simulation ([Engine.DualSimulate],
// [Engine.StrongSimulate], whose TopoResult embeds a Result).
func (e *Engine) ResultGraphOf(res *Result) *ResultGraph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if res.Pattern().AllBoundsOne() {
		// All witnesses are single edges (the only case for dual/strong
		// results): with no oracle they are read off the cached
		// snapshot's adjacency, so an engine that never ran a bounded
		// query builds (and pays the memory for) no distance oracle.
		return core.BuildResultGraphFrozen(res, nil, e.frozen())
	}
	// A bounded res implies a query already built (and cached) the
	// oracle, so this cannot block on construction or fail in practice;
	// the panic guards the API against results from a different engine.
	o, _, err := e.queryOracle(context.Background())
	if err != nil {
		panic(fmt.Sprintf("gpm: ResultGraphOf on an engine whose oracle cannot be built: %v", err))
	}
	return core.BuildResultGraphFrozen(res, o, e.frozen())
}

// Watch starts maintaining the maximum bounded-simulation match of p
// incrementally (the paper's IncMatch). All bounded watchers share the
// engine's DynamicMatrix; feed edge updates through [Engine.Update] and
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
// is bit-identical to [Engine.StrongSimulate] at every worker count.
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

// Update applies a batch of edge updates to the bound graph, keeps the
// shared distance matrix consistent (the paper's UpdateBM), cascades
// every watcher — bounded (IncMatch) and sim/dual/strong alike — and
// invalidates derived caches. It returns one delta per open watcher, in
// Watch order. On a validation error the graph is unchanged.
//
// A batch with no net structural effect (empty, or every touched edge
// inserted-then-deleted within the batch) keeps the cached frozen
// snapshot, 2-hop labelling and PLL labelling: they still describe the
// graph, so later queries skip the rebuild.
func (e *Engine) Update(updates ...Update) ([]WatchDelta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var deltas []WatchDelta
	if dm := e.dm.Load(); dm != nil {
		aff, err := dm.Apply(updates)
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
	// The matrix was maintained in place; the 2-hop labelling, the PLL
	// labelling and the frozen CSR snapshot were not, so drop them for
	// lazy rebuild.
	e.idx.Store(nil)
	e.po.Store(nil)
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
// longer maintain it. When the last matrix-backed watcher closes and
// nothing else uses the shared matrix (the engine's cached oracle is not
// backed by it), the DynamicMatrix is released too, so Updates stop
// paying distance-matrix maintenance and the O(|V|²) memory is freed —
// sim/dual/strong watchers never pin it. Closing twice is a no-op.
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
	if !matrixNeeded && w.e.mo.Load() == nil {
		w.e.dm.Store(nil)
	}
}
