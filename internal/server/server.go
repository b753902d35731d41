// Package server implements gpmd's HTTP/JSON service layer: named data
// graphs bound into concurrency-safe gpm.Engines, every matching
// semantics the module implements served to remote callers, and
// stateful watch sessions exposing incremental maintenance over the
// wire.
//
// Endpoints (wire schema in package gpm/client, shared with the typed
// Go client so the two cannot drift):
//
//	POST   /match       bounded simulation (the paper's cubic Match)
//	POST   /simulate    plain graph simulation
//	POST   /dual        dual simulation (Ma et al. VLDB 2012)
//	POST   /strong      strong simulation
//	POST   /enumerate   subgraph-isomorphism embeddings (VF2/Ullmann)
//	POST   /count       embedding count (planner symmetry + incl-excl)
//	POST   /batch       bounded simulation over a pattern batch
//	POST   /watch       open an incremental watch session
//	GET    /watch/{id}  snapshot a session's maintained relation
//	DELETE /watch/{id}  close a session
//	POST   /update      apply edge updates, stream per-watcher deltas
//	GET    /graphs      list bound graphs
//	GET    /stats       aggregate MatchStats across served queries
//	GET    /healthz     liveness
//
// Concurrency discipline: queries ride the engine's RWMutex read side,
// so any number of requests match concurrently against one graph;
// /update and watch open/close take the write side and exclude them.
// Every request derives its context from the client connection, the
// per-request deadline (timeout_ms, else the server default) and the
// server's base context — Close cancels the base context, so graceful
// shutdown drains in-flight fixpoints via their own cancellation
// polling instead of abandoning goroutines.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/pattern"
	"gpm/internal/qcache"
	"gpm/internal/wal"
)

// Config parameterises New.
type Config struct {
	// DefaultTimeout bounds requests that carry no timeout_ms of their
	// own. Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies (patterns and update batches from
	// untrusted callers). Zero means the built-in 64 MiB.
	MaxBodyBytes int64
	// WAL, when non-nil, makes the server durable: update batches and
	// watch open/close are logged before they take effect, and Checkpoint
	// snapshots every binding. Recovery must be the *wal.Recovery the same
	// wal.Open returned; Bind consults it to restore snapshotted graphs,
	// re-open watch sessions under their original ids and replay logged
	// batches.
	WAL      *wal.WAL
	Recovery *wal.Recovery
	// SnapshotEvery triggers an automatic Checkpoint once that many update
	// batches accumulate in the log (bounding replay work after a crash).
	// Zero disables automatic snapshots; Checkpoint can still be called.
	SnapshotEvery int
	// CacheBytes bounds the relation-result cache (internal/qcache):
	// relation responses are cached under (graph, update generation,
	// semantics, canonical pattern digest), and misses first try to seed
	// the fixpoint from a cached containing pattern's relation. Zero
	// disables caching. Invalidation is by generation token — effective
	// updates orphan old entries, net-no-op batches evict nothing — so
	// cached answers are always byte-identical to cold computations.
	CacheBytes int64
}

const defaultMaxBody = 64 << 20

// Server serves bound graphs over HTTP. Create with New, add graphs
// with Bind, then use it as an http.Handler.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	base context.Context
	stop context.CancelFunc

	mu       sync.RWMutex // guards bindings and sessions
	bindings map[string]*binding
	sessions map[int64]*session
	nextID   int64

	// walMu orders logged mutations against snapshots: handleUpdate,
	// handleWatchOpen and handleWatchClose hold the read side across
	// append+apply, so a Checkpoint (write side) never observes a batch
	// that is applied but unlogged or logged but unapplied. Lock order:
	// walMu before mu.
	walMu sync.RWMutex

	stats    stats
	recovery recoveryStats // written by Bind, read-only once serving

	// cache is the relation-result cache; nil when Config.CacheBytes is
	// zero. Entries key on the engine's generation token, so no update
	// path needs to flush it — handleUpdate only calls DropStale to
	// reclaim bytes from orphaned generations early.
	cache *qcache.Cache
}

// recoveryStats aggregates what startup replay did across Bind calls.
type recoveryStats struct {
	graphs   int64
	sessions int64
	batches  int64
	replayNS int64
}

// binding is one named graph served by its engine.
type binding struct {
	name string
	eng  *gpm.Engine
	// byWatcher resolves the engine's update deltas back to sessions;
	// guarded by Server.mu.
	byWatcher map[*gpm.Watcher]*session
}

// session is one open watch: an incrementally maintained match reachable
// over the wire by ID.
type session struct {
	id        int64
	b         *binding
	semantics string
	w         *gpm.Watcher
	// pattern is the canonical .pattern text (WritePattern output, not the
	// request's raw bytes), logged on open and written into snapshot
	// manifests so recovery re-opens an identical session.
	pattern string
}

// New returns an empty server; Bind graphs before serving.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBody
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		base:     base,
		stop:     stop,
		bindings: make(map[string]*binding),
		sessions: make(map[int64]*session),
	}
	if cfg.CacheBytes > 0 {
		s.cache = qcache.New(cfg.CacheBytes)
	}
	if cfg.Recovery != nil {
		// Watch ids survive crashes: resume the counter past every id the
		// log ever issued so recovered and new sessions never collide.
		s.nextID = cfg.Recovery.NextID
	}
	s.routes()
	return s
}

// Bind names a graph and binds it into an engine. The graph must not be
// mutated afterwards except through /update. Bind is not safe to call
// concurrently with serving; bind every graph before the listener opens.
//
// When the server was configured with WAL recovery state, Bind restores
// the binding to its pre-crash condition: a snapshotted copy of the
// graph replaces g, every watch session that was open at crash time is
// re-opened under its original id, and the update batches logged after
// the snapshot replay through the engine — so the incrementally
// maintained relations end up identical to a process that never crashed
// (the engine's maintain-equals-recompute invariant makes watcher-first
// replay exact, not approximate).
func (s *Server) Bind(name string, g *gpm.Graph, opts ...gpm.EngineOption) error {
	if name == "" {
		return fmt.Errorf("server: empty graph name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.bindings[name]; dup {
		return fmt.Errorf("server: graph %q already bound", name)
	}
	var rec *wal.GraphState
	if s.cfg.Recovery != nil {
		rec = s.cfg.Recovery.Graphs[name]
	}
	if rec != nil && rec.Graph != nil {
		// The snapshot is the authoritative base state; the caller's g is
		// the same graph as of bind time, pre-updates.
		g = rec.Graph
	}
	b := &binding{
		name:      name,
		eng:       gpm.NewEngine(g, opts...),
		byWatcher: make(map[*gpm.Watcher]*session),
	}
	s.bindings[name] = b
	if rec == nil {
		return nil
	}
	return s.recoverBinding(b, rec)
}

// recoverBinding replays one graph's WAL state into its fresh binding:
// sessions first (watchers then absorb the replayed batches exactly as
// they absorbed the originals), then every logged batch in log order.
// Called with s.mu held, before serving starts.
func (s *Server) recoverBinding(b *binding, rec *wal.GraphState) error {
	start := time.Now()
	for _, ws := range rec.Sessions {
		p, err := gpm.ReadPattern(strings.NewReader(ws.Pattern))
		if err != nil {
			return fmt.Errorf("server: recovering watch %d on %q: bad pattern: %v", ws.ID, b.name, err)
		}
		var watcher *gpm.Watcher
		var werr error
		switch ws.Semantics {
		case "match":
			watcher, werr = b.eng.Watch(p)
		case "sim":
			watcher, werr = b.eng.WatchSim(p)
		case "dual":
			watcher, werr = b.eng.WatchDual(p)
		case "strong":
			watcher, werr = b.eng.WatchStrong(p)
		default:
			werr = fmt.Errorf("unknown semantics %q", ws.Semantics)
		}
		if werr != nil {
			return fmt.Errorf("server: recovering watch %d on %q: %v", ws.ID, b.name, werr)
		}
		sess := &session{id: ws.ID, b: b, semantics: ws.Semantics, w: watcher, pattern: ws.Pattern}
		s.sessions[sess.id] = sess
		b.byWatcher[watcher] = sess
		s.recovery.sessions++
	}
	for _, batch := range rec.Batches {
		// A batch that failed validation pre-crash fails identically here;
		// Update is deterministic, so errors are part of the replay, not a
		// recovery failure.
		b.eng.Update(batch...)
		s.recovery.batches++
	}
	s.recovery.replayNS += time.Since(start).Nanoseconds()
	s.recovery.graphs++
	return nil
}

// GraphNames lists the bound graphs sorted by name.
func (s *Server) GraphNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.bindings))
	for name := range s.bindings {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close cancels the server's base context: every in-flight query
// fixpoint and enumeration observes the cancellation at its next poll
// and unwinds, and new watch opens and update batches are refused with
// 503, so an http.Server.Shutdown that follows drains quickly instead
// of waiting out a cubic fixpoint. (Watch initialisation and update
// cascades already in flight run to completion — those engine paths
// are not cancellable — but they are bounded by the batch, not by
// request lifetime.) Close does not close watch sessions; their state
// stays readable until the process exits.
func (s *Server) Close() { s.stop() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /match", s.relationHandler("match"))
	s.mux.HandleFunc("POST /simulate", s.relationHandler("sim"))
	s.mux.HandleFunc("POST /dual", s.relationHandler("dual"))
	s.mux.HandleFunc("POST /strong", s.relationHandler("strong"))
	s.mux.HandleFunc("POST /enumerate", s.handleEnumerate)
	s.mux.HandleFunc("POST /count", s.handleCount)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /watch", s.handleWatchOpen)
	s.mux.HandleFunc("GET /watch/{id}", s.handleWatchGet)
	s.mux.HandleFunc("DELETE /watch/{id}", s.handleWatchClose)
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	s.mux.HandleFunc("GET /graphs", s.handleGraphs)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
}

// httpError is an error with a status code chosen by the handler.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(format string, args ...interface{}) *httpError {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// writeError maps an error to a JSON error response. Context errors
// become 504: the request's deadline (or the shutting-down server)
// cancelled the fixpoint. A graph bound beyond its oracle's addressing
// limit becomes 422: the request was well-formed, the binding cannot
// serve it — and, critically for a daemon, the process stays up.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		code = he.code
	case errors.Is(err, gpm.ErrGraphTooLarge):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = http.StatusGatewayTimeout
	}
	s.stats.errors.Add(1)
	writeJSON(w, code, client.ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// decodeBody strictly decodes one JSON document into v.
func decodeBody(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("bad request body: trailing data")
	}
	return nil
}

// bindingOf resolves a graph name.
func (s *Server) bindingOf(name string) (*binding, error) {
	if name == "" {
		return nil, badRequest("missing graph name")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.bindings[name]
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, err: fmt.Errorf("unknown graph %q", name)}
	}
	return b, nil
}

// parsePattern parses the .pattern text format from a request.
func parsePattern(text string) (*gpm.Pattern, error) {
	if strings.TrimSpace(text) == "" {
		return nil, badRequest("missing pattern")
	}
	p, err := gpm.ReadPattern(strings.NewReader(text))
	if err != nil {
		return nil, badRequest("bad pattern: %v", err)
	}
	return p, nil
}

// requestCtx derives the context one query runs under: the client
// connection (gone when the caller hangs up), the per-request deadline,
// and the server's base context (cancelled by Close). The returned stop
// must be called when the request finishes. A negative timeout_ms is a
// caller bug, not a request for the default: rejecting it keeps "0 or
// absent means default" the only spelling of that intent.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc, error) {
	if timeoutMS < 0 {
		return nil, nil, badRequest("timeout_ms must be >= 0 (got %d); omit it or send 0 for the server default", timeoutMS)
	}
	ctx, cancel := context.WithCancel(r.Context())
	unhook := context.AfterFunc(s.base, cancel)
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	var cancelT context.CancelFunc = func() {}
	if timeout > 0 {
		ctx, cancelT = context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {
		unhook()
		cancelT()
		cancel()
	}, nil
}

// wireStats converts engine stats to the wire schema.
func wireStats(st gpm.MatchStats) client.Stats {
	return client.Stats{
		Oracle:        st.Oracle.String(),
		OracleBuildNS: st.OracleBuild.Nanoseconds(),
		MatchTimeNS:   st.MatchTime.Nanoseconds(),
		OracleQueries: st.OracleQueries,
		Removals:      st.Removals,
		InitialPairs:  st.InitialPairs,
	}
}

// relationHandler serves the four relation-valued semantics; they share
// request decoding, deadline mapping and response shape.
func (s *Server) relationHandler(semantics string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.inFlight.Add(1)
		defer s.stats.inFlight.Add(-1)
		var req client.QueryRequest
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, err)
			return
		}
		rel, raw, err := s.relationQuery(r, semantics, req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		if raw != nil {
			// A memoised hit response: already-encoded bytes, written as-is.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(raw)
			return
		}
		writeJSON(w, http.StatusOK, rel)
	}
}

// relationQuery runs one relation-valued query end to end through the
// engine's unified dispatch, fronted by the result cache: exact
// canonical-digest hits return the cached relation in the numbering of
// the spelling that was sent; on a miss a cached containing pattern's
// relation seeds the fixpoint; either way the response rows are
// byte-identical to a cold computation of the sent pattern. A non-nil
// raw return is the complete encoded response body (a memoised hit) and
// takes precedence over the relation.
func (s *Server) relationQuery(r *http.Request, semantics string, req client.QueryRequest) (*client.Relation, []byte, error) {
	b, err := s.bindingOf(req.Graph)
	if err != nil {
		return nil, nil, err
	}
	sem, err := gpm.ParseRelSemantics(semantics)
	if err != nil {
		return nil, nil, badRequest("unknown semantics %q", semantics)
	}
	ctx, stop, err := s.requestCtx(r, req.TimeoutMS)
	if err != nil {
		return nil, nil, err
	}
	defer stop()

	// Fast path: a text whose canonical form is memoised skips the parse
	// and the canonical search; if the key then hits, the whole request is
	// a couple of map lookups. Texts only enter the memo after parsing
	// successfully, so malformed patterns still fall through to the parse
	// error below.
	var (
		key       qcache.Key
		spelling  pattern.Canon
		cacheable bool
		gen       uint64
	)
	if s.cache != nil {
		if sp, ok := s.cache.Spelling(req.Pattern); ok {
			gen = b.eng.Generation()
			key = qcache.Key{Graph: b.name, Generation: gen, Semantics: semantics, Digest: sp.Digest}
			spelling = sp
			cacheable = true
			if rel, raw, hit := s.cacheHit(b.name, semantics, key, spelling); hit {
				return rel, raw, nil
			}
		}
	}

	p, err := parsePattern(req.Pattern)
	if err != nil {
		return nil, nil, err
	}

	// Cache probe under the graph's current generation. Patterns too
	// symmetric to canonicalise within budget are served uncached — a
	// missing key is a performance event, never a correctness one.
	if s.cache != nil && !cacheable {
		if c, cerr := p.Canonical(); cerr == nil {
			s.cache.PutSpelling(req.Pattern, c)
			gen = b.eng.Generation()
			key = qcache.Key{Graph: b.name, Generation: gen, Semantics: semantics, Digest: c.Digest}
			spelling = c
			cacheable = true
			if rel, raw, hit := s.cacheHit(b.name, semantics, key, spelling); hit {
				return rel, raw, nil
			}
		}
	}

	// Containment fallback: a cached pattern that contains p (child
	// witnesses for match/sim, child+parent for dual) seeds p's fixpoint
	// with its relation rows. Strong simulation is not a plain fixpoint
	// and only benefits from exact hits.
	q := gpm.RelationQuery{Semantics: sem, Pattern: p}
	marker := ""
	if cacheable && sem != gpm.RelStrong {
		mode := pattern.ContainChild
		if sem == gpm.RelDual {
			mode = pattern.ContainDual
		}
		if seed, found := s.cache.Seed(b.name, gen, semantics, p, mode); found {
			q.Seed = seed
			marker = "containment"
		}
	}
	res, err := b.eng.RelationQuery(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	if q.Seed != nil && res.Generation != gen {
		// An update landed between the containment probe and the query:
		// the seed's superset guarantee is void. Recompute cold.
		marker = ""
		res, err = b.eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: sem, Pattern: p})
		if err != nil {
			return nil, nil, err
		}
	}
	if cacheable {
		// Store under the generation the query actually observed — it is
		// exactly the graph state the relation describes.
		key.Generation = res.Generation
		s.cache.PutSpelled(key, spelling, p, res.Relation, res.OK)
	}
	rel := relationOf(b.name, semantics, res.OK, countPairs(res.Relation), res.Relation, res.Stats)
	rel.Stats.Cache = marker
	s.stats.record(semantics, rel.Stats)
	return rel, nil, nil
}

// cacheHit serves one exact cache hit, its rows in the numbering of the
// spelling that was sent. The first hit from the spelling that computed
// an entry memoises the encoded response in the cache; every later hit
// from a spelling with the same node order returns those bytes verbatim,
// skipping the JSON encode. Hit responses are deterministic — the graph
// name and semantics are part of the key, the rows are immutable, and the
// stats block carries no wall-clock readings — so replaying the bytes is
// byte-identical to re-encoding.
func (s *Server) cacheHit(graph, semantics string, key qcache.Key, sp pattern.Canon) (*client.Relation, []byte, bool) {
	cached, wire, resOK, hit := s.cache.GetSpelled(key, sp)
	if !hit {
		return nil, nil, false
	}
	if wire != nil {
		s.stats.record(semantics, client.Stats{Oracle: gpm.OracleNone.String(), Cache: "hit"})
		return nil, wire, true
	}
	rel := relationOf(graph, semantics, resOK, countPairs(cached), cached, gpm.MatchStats{Oracle: gpm.OracleNone})
	rel.Stats.Cache = "hit"
	s.stats.record(semantics, rel.Stats)
	body, err := json.Marshal(rel)
	if err != nil {
		return rel, nil, true
	}
	// writeJSON goes through json.Encoder, which appends a newline; match
	// it so memoised bytes are identical to the encoded path. SetWire
	// keeps them only when sp's order is the entry's.
	body = append(body, '\n')
	s.cache.SetWire(key, sp, body)
	return nil, body, true
}

func countPairs(rel [][]int32) int {
	pairs := 0
	for _, row := range rel {
		pairs += len(row)
	}
	return pairs
}

func relationOf(graph, semantics string, ok bool, pairs int, matches [][]int32, st gpm.MatchStats) *client.Relation {
	return &client.Relation{
		Graph:     graph,
		Semantics: semantics,
		OK:        ok,
		Pairs:     pairs,
		Matches:   matches,
		Stats:     wireStats(st),
	}
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	var req client.QueryRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	b, err := s.bindingOf(req.Graph)
	if err != nil {
		s.writeError(w, err)
		return
	}
	p, err := parsePattern(req.Pattern)
	if err != nil {
		s.writeError(w, err)
		return
	}
	opts := gpm.IsoOptions{MaxEmbeddings: req.MaxEmbeddings, MaxSteps: req.MaxSteps, NoPlan: req.NoPlan}
	switch req.Algo {
	case "", "vf2":
	case "ullmann":
		opts.Algo = gpm.AlgoUllmann
	default:
		s.writeError(w, badRequest("unknown algo %q (want vf2 or ullmann)", req.Algo))
		return
	}
	ctx, stop, err := s.requestCtx(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer stop()
	res, err := b.eng.Enumerate(ctx, p, opts)
	if res == nil {
		// Not even a partial enumeration: validation failure or a context
		// cancelled before the search started.
		if err == nil {
			err = fmt.Errorf("enumeration produced no result")
		}
		s.writeError(w, err)
		return
	}
	// The partial-enumeration contract: a deadline that expires
	// mid-search still yields the embeddings found so far.
	resp := client.Enumeration{
		Graph:      b.name,
		Embeddings: res.Embeddings,
		Steps:      res.Steps,
		Complete:   res.Complete,
		Stats:      wireStats(res.Stats),
	}
	if err != nil {
		resp.Truncated = err.Error()
	}
	s.stats.record("enumerate", resp.Stats)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	var req client.QueryRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	b, err := s.bindingOf(req.Graph)
	if err != nil {
		s.writeError(w, err)
		return
	}
	p, err := parsePattern(req.Pattern)
	if err != nil {
		s.writeError(w, err)
		return
	}
	opts := gpm.IsoOptions{MaxSteps: req.MaxSteps, NoPlan: req.NoPlan}
	switch req.Algo {
	case "", "vf2":
	case "ullmann":
		opts.Algo = gpm.AlgoUllmann
	default:
		s.writeError(w, badRequest("unknown algo %q (want vf2 or ullmann)", req.Algo))
		return
	}
	ctx, stop, err := s.requestCtx(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer stop()
	res, err := b.eng.CountEmbeddings(ctx, p, opts)
	if res == nil {
		if err == nil {
			err = fmt.Errorf("count produced no result")
		}
		s.writeError(w, err)
		return
	}
	// Same partial contract as /enumerate: a deadline that expires
	// mid-search still yields the count accumulated so far.
	resp := client.Count{
		Graph:         b.name,
		Count:         res.Count,
		Steps:         res.Steps,
		Complete:      res.Complete,
		Automorphisms: res.Automorphisms,
		Stats:         wireStats(res.Stats),
	}
	if err != nil {
		resp.Truncated = err.Error()
	}
	s.stats.record("count", resp.Stats)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	var req client.BatchRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	b, err := s.bindingOf(req.Graph)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Patterns) == 0 {
		s.writeError(w, badRequest("empty pattern batch"))
		return
	}
	ps := make([]*gpm.Pattern, len(req.Patterns))
	for i, text := range req.Patterns {
		p, err := parsePattern(text)
		if err != nil {
			s.writeError(w, badRequest("pattern %d: %v", i, err))
			return
		}
		ps[i] = p
	}
	ctx, stop, err := s.requestCtx(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer stop()
	results, err := b.eng.MatchBatch(ctx, ps)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := client.BatchResponse{Graph: b.name, Results: make([]client.Relation, len(results))}
	for i, res := range results {
		resp.Results[i] = *relationOf(b.name, "match", res.OK(), res.Pairs(), res.Relation(), res.Stats)
		s.stats.record("batch", resp.Results[i].Stats)
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkAccepting rejects new watch/update work once Close was called:
// the engine's Watch and Update paths run uncancellable write-side
// fixpoints, so the shutdown guarantee for them is "none started after
// Close" rather than mid-flight cancellation.
func (s *Server) checkAccepting() error {
	if err := s.base.Err(); err != nil {
		return &httpError{code: http.StatusServiceUnavailable, err: fmt.Errorf("server shutting down")}
	}
	return nil
}

func (s *Server) handleWatchOpen(w http.ResponseWriter, r *http.Request) {
	var req client.WatchRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.checkAccepting(); err != nil {
		s.writeError(w, err)
		return
	}
	b, err := s.bindingOf(req.Graph)
	if err != nil {
		s.writeError(w, err)
		return
	}
	p, err := parsePattern(req.Pattern)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var watcher *gpm.Watcher
	var werr error
	switch req.Semantics {
	case "match":
		watcher, werr = b.eng.Watch(p)
	case "sim":
		watcher, werr = b.eng.WatchSim(p)
	case "dual":
		watcher, werr = b.eng.WatchDual(p)
	case "strong":
		watcher, werr = b.eng.WatchStrong(p)
	default:
		s.writeError(w, badRequest("unknown watch semantics %q (want match, sim, dual or strong)", req.Semantics))
		return
	}
	if werr != nil {
		s.writeError(w, engineError(werr))
		return
	}
	// Canonical pattern text for the WAL: recovery re-parses exactly what
	// WritePattern emits, independent of the request's formatting.
	var pb strings.Builder
	if err := gpm.WritePattern(&pb, p); err != nil {
		watcher.Close()
		s.writeError(w, fmt.Errorf("serialising pattern: %v", err))
		return
	}

	s.walMu.RLock()
	s.mu.Lock()
	// Re-check shutdown under the lock: the watcher build above can be
	// slow, and a session registered after Close has drained would outlive
	// the shutdown guarantee (and, with a WAL, be resurrected on restart).
	if s.base.Err() != nil {
		s.mu.Unlock()
		s.walMu.RUnlock()
		watcher.Close()
		s.writeError(w, &httpError{code: http.StatusServiceUnavailable, err: fmt.Errorf("server shutting down")})
		return
	}
	s.nextID++
	sess := &session{id: s.nextID, b: b, semantics: req.Semantics, w: watcher, pattern: pb.String()}
	s.sessions[sess.id] = sess
	b.byWatcher[watcher] = sess
	s.mu.Unlock()
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.AppendWatchOpen(b.name, wal.Session{ID: sess.id, Semantics: sess.semantics, Pattern: sess.pattern}); err != nil {
			// The open is not durable; undo it rather than hand out a
			// session a restart would silently forget.
			s.mu.Lock()
			delete(s.sessions, sess.id)
			delete(b.byWatcher, watcher)
			s.mu.Unlock()
			s.walMu.RUnlock()
			watcher.Close()
			s.writeError(w, fmt.Errorf("wal append: %v", err))
			return
		}
	}
	s.walMu.RUnlock()
	s.stats.watchesOpened.Add(1)
	writeJSON(w, http.StatusOK, s.watchState(sess))
}

// engineError classifies an error from the engine's watch/update write
// path. The sentinel and context errors must reach writeError unwrapped
// so they map to 422 and 504 exactly as the relation handlers report
// them; anything else is a validation failure of the request and stays
// a 400.
func engineError(err error) error {
	if errors.Is(err, gpm.ErrGraphTooLarge) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) {
		return err
	}
	return badRequest("%v", err)
}

func (s *Server) watchState(sess *session) client.WatchState {
	return client.WatchState{
		ID:        sess.id,
		Graph:     sess.b.name,
		Semantics: sess.semantics,
		OK:        sess.w.OK(),
		Pairs:     sess.w.Pairs(),
		Matches:   sess.w.Relation(),
	}
}

// sessionOf resolves a watch session from the {id} path value.
func (s *Server) sessionOf(r *http.Request) (*session, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return nil, badRequest("bad watch id %q", r.PathValue("id"))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, err: fmt.Errorf("unknown watch %d", id)}
	}
	return sess, nil
}

func (s *Server) handleWatchGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessionOf(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.watchState(sess))
}

func (s *Server) handleWatchClose(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessionOf(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.walMu.RLock()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	delete(sess.b.byWatcher, sess.w)
	s.mu.Unlock()
	if s.cfg.WAL != nil {
		// Log the close so recovery doesn't resurrect the session. An
		// append failure is not worth failing the close over: replaying an
		// extra open only costs memory, not correctness.
		s.cfg.WAL.AppendWatchClose(sess.id)
	}
	s.walMu.RUnlock()
	sess.w.Close()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req client.UpdateRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.checkAccepting(); err != nil {
		s.writeError(w, err)
		return
	}
	b, err := s.bindingOf(req.Graph)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ups := make([]gpm.Update, len(req.Updates))
	for i, op := range req.Updates {
		switch op.Op {
		case "+":
			ups[i] = gpm.InsertEdge(op.U, op.V)
		case "-":
			ups[i] = gpm.DeleteEdge(op.U, op.V)
		default:
			s.writeError(w, badRequest("update %d: unknown op %q (want + or -)", i, op.Op))
			return
		}
	}
	// Log before apply: a crash between the two replays a batch the
	// in-memory engine never absorbed, which is exactly what recovery
	// redoes; the reverse order would lose an acknowledged batch. The
	// walMu read side keeps a concurrent Checkpoint from snapshotting
	// between the append and the apply.
	s.walMu.RLock()
	if s.cfg.WAL != nil {
		if err := s.cfg.WAL.AppendUpdate(b.name, ups); err != nil {
			s.walMu.RUnlock()
			s.writeError(w, fmt.Errorf("wal append: %v", err))
			return
		}
	}
	deltas, err := b.eng.Update(ups...)
	s.walMu.RUnlock()
	if err != nil {
		s.writeError(w, engineError(err))
		return
	}
	s.stats.updates.Add(1)
	s.stats.updateEdges.Add(int64(len(ups)))
	if s.cache != nil {
		// Reclaim entries the generation bump orphaned. A net-no-op batch
		// leaves the generation — and every cached answer — in place.
		s.cache.DropStale(b.name, b.eng.Generation())
	}

	// Materialise the delta lines under the registry lock, then stream
	// with the lock released: a slow or stalled reader must not hold
	// s.mu (a blocked writer behind it would stall every other request
	// on every graph).
	s.mu.RLock()
	watchers := len(b.byWatcher)
	lines := make([]client.WatchDelta, 0, len(deltas))
	for _, d := range deltas {
		sess, ok := b.byWatcher[d.Watcher]
		if !ok {
			continue // closed between Update and here
		}
		lines = append(lines, client.WatchDelta{
			WatchID:    sess.id,
			Semantics:  sess.semantics,
			OK:         d.Watcher.OK(),
			Pairs:      d.Watcher.Pairs(),
			Added:      wirePairs(d.Delta.Added),
			Removed:    wirePairs(d.Delta.Removed),
			Recomputed: d.Delta.Recomputed,
		})
	}
	s.mu.RUnlock()

	// Stream as NDJSON: header first, then one line per open session on
	// this graph, flushed as encoded so a caller maintaining many
	// sessions processes deltas as they arrive.
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	enc.Encode(client.UpdateHeader{Graph: b.name, Applied: len(ups), Watchers: watchers})
	for _, line := range lines {
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.maybeCheckpoint()
}

// maybeCheckpoint snapshots once enough batches accumulate in the log,
// bounding crash-recovery replay work. Runs after the update response is
// streamed so snapshot latency never sits on a request's critical path.
// A failed snapshot is retried by the next update: the log keeps
// growing, LoggedBatches stays over the threshold.
func (s *Server) maybeCheckpoint() {
	if s.cfg.WAL == nil || s.cfg.SnapshotEvery <= 0 {
		return
	}
	if s.cfg.WAL.LoggedBatches() < int64(s.cfg.SnapshotEvery) {
		return
	}
	s.Checkpoint()
}

// Checkpoint writes a new WAL snapshot generation — every bound graph in
// gio format plus the open-watch manifest — rotates the log and retires
// the previous generation. It is a no-op without a WAL. The walMu write
// side excludes in-flight log appends, so the snapshot is exactly the
// state the log's empty successor starts from.
func (s *Server) Checkpoint() error {
	if s.cfg.WAL == nil {
		return nil
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	var st wal.SnapshotState
	s.mu.RLock()
	st.NextID = s.nextID
	for _, b := range s.bindings {
		gs := wal.GraphSnapshot{Name: b.name, WriteGraph: b.eng.WriteGraph}
		for _, sess := range b.byWatcher {
			gs.Sessions = append(gs.Sessions, wal.Session{ID: sess.id, Semantics: sess.semantics, Pattern: sess.pattern})
		}
		st.Graphs = append(st.Graphs, gs)
	}
	s.mu.RUnlock()
	if err := s.cfg.WAL.Snapshot(st); err != nil {
		return err
	}
	s.stats.snapshots.Add(1)
	return nil
}

func wirePairs(ps []gpm.MatchPair) []client.MatchPair {
	if len(ps) == 0 {
		return nil
	}
	out := make([]client.MatchPair, len(ps))
	for i, p := range ps {
		out[i] = client.MatchPair{U: p.U, X: p.X}
	}
	return out
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]client.GraphInfo, 0, len(s.bindings))
	for _, b := range s.bindings {
		n, m := b.eng.Size()
		infos = append(infos, client.GraphInfo{
			Name:    b.name,
			Nodes:   n,
			Edges:   m,
			Oracle:  b.eng.OracleKind().String(),
			Workers: b.eng.Workers(),
			Watches: len(b.byWatcher),
		})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// StatsSnapshot returns the aggregate counters (also served at /stats);
// cmd/gpmd publishes it through expvar. With a WAL configured the
// durability block reports the log position and what startup recovery
// replayed.
func (s *Server) StatsSnapshot() client.ServerStats {
	out := s.stats.snapshot()
	if w := s.cfg.WAL; w != nil {
		ws := &client.WALStats{
			Generation:        w.Generation(),
			SyncPolicy:        w.Sync().String(),
			LoggedBatches:     w.LoggedBatches(),
			Snapshots:         s.stats.snapshots.Load(),
			RecoveredGraphs:   s.recovery.graphs,
			RecoveredSessions: s.recovery.sessions,
			RecoveredBatches:  s.recovery.batches,
			ReplayMS:          float64(s.recovery.replayNS) / 1e6,
		}
		if s.cfg.Recovery != nil {
			ws.TruncatedTail = s.cfg.Recovery.Truncated
		}
		out.WAL = ws
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		out.Cache = &client.CacheStats{
			Hits:            cs.Hits,
			Misses:          cs.Misses,
			ContainmentHits: cs.ContainmentHits,
			Evictions:       cs.Evictions,
			Entries:         cs.Entries,
			Bytes:           cs.Bytes,
			MaxBytes:        cs.MaxBytes,
		}
	}
	return out
}
