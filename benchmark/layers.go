package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/core"
	"gpm/internal/gio"
	"gpm/internal/graph"
	"gpm/internal/incremental"
	"gpm/internal/matrix"
	"gpm/internal/pattern"
	"gpm/internal/plan"
	"gpm/internal/pll"
	"gpm/internal/qcache"
	"gpm/internal/server"
	"gpm/internal/simulation"
	"gpm/internal/topo"
	"gpm/internal/wal"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent is the index of the
// span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// With off set it records nothing, which is how the tracing overhead is
// measured.
type tracer struct {
	t0    time.Time
	spans []span
	off   bool
}

// do runs f inside a span and returns the span's index and duration.
func (t *tracer) do(name string, parent, op int, f func()) (int, time.Duration) {
	if t.off {
		start := time.Now()
		f()
		return -1, time.Since(start)
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	start := time.Now()
	f()
	end := time.Now()
	t.spans[id].Start, t.spans[id].End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return id, end.Sub(start)
}

// layerRun is one traced run: the spans, the per-layer samples behind
// each metric, the program counts, and the cross-checks between layers.
type layerRun struct {
	tr        tracer
	in        *inputs
	samples   map[string][]float64 // metric name -> one value per call, in the metric's unit
	values    map[string]metric    // metrics that are not medians of samples
	counts    map[string]int64
	attempted int
	failed    int
	first     string
	nextOp    int
	batches   int // update batches the write-path probes replay
}

// unitOf reads a metric's unit off its name.
func unitOf(name string) (unit string, perSecond float64) {
	base := name
	if i := strings.LastIndexByte(name, '.'); i > strings.IndexByte(name, '.') {
		base = name[:i] // drop a ".match"-style qualifier
	}
	switch {
	case strings.HasSuffix(base, "_ns"):
		return "ns", 1e9
	case strings.HasSuffix(base, "_us"):
		return "us", 1e6
	case strings.HasSuffix(base, "_ms") || strings.HasSuffix(base, "_ms_per_batch"):
		return "ms", 1e3
	}
	return "s", 1
}

// time runs f in a span named after metric, adds its duration to the
// metric's samples and returns it.
func (lr *layerRun) time(metric string, parent, op int, f func()) time.Duration {
	_, d := lr.tr.do(metric, parent, op, f)
	_, scale := unitOf(metric)
	lr.samples[metric] = append(lr.samples[metric], d.Seconds()*scale)
	return d
}

func (lr *layerRun) set(name string, v float64, unit string) { lr.values[name] = metric{v, unit} }

// expect records one cross-check between layers.
func (lr *layerRun) expect(ok bool, format string, args ...any) {
	lr.attempted++
	if !ok {
		lr.failed++
		if lr.first == "" {
			lr.first = fmt.Sprintf(format, args...)
		}
	}
}

func (lr *layerRun) op() int { lr.nextOp++; return lr.nextOp }

// sampleItems is how many relation items per semantics, and how many
// generator iso patterns and update batches, the traced run replays.
const (
	sampleItems   = 8
	sampleIso     = 10
	sampleBatches = 24
)

// tracedRun replays a fixed sample of workload w's inputs in-process,
// timing each layer's public functions from outside, and reports every
// per-layer metric of BENCHMARK.json. Nothing here talks to a gpmd
// child; the end-to-end numbers come from the other kind of run.
func tracedRun(ctx context.Context, e *env, w *workload, seed int64, seconds float64) (*report, error) {
	sp := w.full
	if e.smoke {
		sp = w.smoke
	}
	in, rf, err := prepare(sp, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.dir, "trace-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	lr := &layerRun{
		tr: tracer{t0: time.Now()}, in: in,
		samples: map[string][]float64{}, values: map[string]metric{}, counts: map[string]int64{},
		batches: sampleBatches,
	}
	if e.smoke {
		lr.batches = 4
	}

	lr.graphAndOracles(ctx)
	items := lr.sample()
	lr.kernels(ctx, items)
	if err := lr.requests(ctx, items); err != nil {
		return nil, err
	}
	if err := lr.loopback(ctx, items, time.Duration(min(seconds/8, 1)*float64(time.Second))); err != nil {
		return nil, err
	}
	if err := lr.ladder(ctx, e, w, rf, tmp, seconds); err != nil {
		return nil, err
	}
	lr.updates()
	if err := lr.wal(tmp); err != nil {
		return nil, err
	}
	lr.enumeration(ctx)

	rep := &report{
		Workload: w.name, Seed: seed, Trace: true,
		InputsSHA256: in.sha256, ReferenceChecksum: referenceChecksum(in, rf),
		Counts: lr.counts, FirstFailure: lr.first,
	}
	rep.result = result{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: lr.values}
	for name, v := range lr.samples {
		unit, _ := unitOf(name)
		rep.Metrics[name] = metric{median(v), unit}
	}
	for name, n := range lr.counts {
		rep.Metrics[name] = metric{float64(n), "count"}
	}
	if c := rep.Metrics["trace.coverage"].Value; w.name == "cold-relation" && (c < 0.8 || c > 1.2) {
		fmt.Fprintf(os.Stderr, "benchmark: trace.coverage %.2f is outside 0.8-1.2: the layer spans do not explain the handler time\n", c)
	}
	spansFile := filepath.Join(e.dir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	data, err := json.Marshal(lr.tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(spansFile, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(lr.tr.spans), spansFile)
	return rep, nil
}

// graphAndOracles times the graph reader, the freeze and both distance
// oracles' builds and probes.
func (lr *layerRun) graphAndOracles(ctx context.Context) {
	op := lr.op()
	for i := 0; i < 3; i++ {
		lr.time("gio.read_graph_s", -1, op, func() {
			g, err := gio.ReadGraph(bytes.NewReader(lr.in.graphText))
			lr.expect(err == nil && g.N() == lr.in.g.N(), "gio.ReadGraph: %v", err)
		})
	}
	var f *graph.Frozen
	for i := 0; i < 3; i++ {
		lr.time("engine.freeze_ms", -1, op, func() { f = lr.in.g.Freeze() })
	}
	workers := runtime.GOMAXPROCS(0)
	var m *matrix.Matrix
	lr.time("matrix.build_s", -1, op, func() { m = matrix.NewFrozen(f, workers) })
	var idx *pll.Index
	lr.time("pll.build_s", -1, op, func() {
		opts := pll.AutoOptions(f)
		opts.Workers = workers
		var err error
		idx, err = pll.Build(ctx, f, opts)
		lr.expect(err == nil, "pll.Build: %v", err)
	})
	if idx == nil {
		return
	}
	lr.set("pll.label_bytes", float64(idx.MemoryBytes()), "B")

	// The same seeded pairs against both oracles; they must agree.
	r := rand.New(rand.NewSource(1))
	const probes = 20000
	pairs := make([][2]int, probes)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(f.N()), r.Intn(f.N())}
	}
	var sumM, sumP int
	_, dm := lr.tr.do("matrix.probe", -1, op, func() {
		for _, p := range pairs {
			sumM += m.Dist(p[0], p[1])
		}
	})
	_, dp := lr.tr.do("pll.probe", -1, op, func() {
		for _, p := range pairs {
			sumP += idx.Dist(p[0], p[1])
		}
	})
	lr.set("matrix.probe_ns", float64(dm.Nanoseconds())/probes, "ns")
	lr.set("pll.probe_ns", float64(dp.Nanoseconds())/probes, "ns")
	lr.expect(sumM == sumP, "matrix and PLL disagree on %d sampled distances: sums %d and %d", probes, sumM, sumP)

	lr.tr.do("engine.oracle_build", -1, op, func() {
		eng := gpm.NewEngine(lr.in.g, gpm.WithAutoOracle())
		res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: mustPattern(lr.in.watch[0])})
		if lr.expect(err == nil, "first /match on a fresh engine: %v", err); err == nil {
			lr.set("engine.oracle_build_s", res.Stats.OracleBuild.Seconds(), "s")
		}
	})
}

// item is one sampled relation item with its parsed patterns.
type item struct {
	relItem
	sem    gpm.RelSemantics
	pat    [nVariants]*pattern.Pattern
	want   [nVariants]uint64 // reference checksum of each text's answer
	bodyOf [nVariants][]byte
}

// sample picks the first sampleItems items of each semantics and answers
// them on the reference engine.
func (lr *layerRun) sample() []item {
	var out []item
	per := map[string]int{}
	ref := referenceEngine(lr.in.g)
	for _, ri := range lr.in.rel {
		if per[ri.sem] == sampleItems {
			continue
		}
		per[ri.sem]++
		it := item{relItem: ri}
		it.sem, _ = gpm.ParseRelSemantics(ri.sem)
		for v := range it.text {
			it.pat[v] = mustPattern(ri.text[v])
			it.bodyOf[v] = queryBody(ri.text[v], 0)
			res, err := ref.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: it.sem, Pattern: it.pat[v]})
			if lr.expect(err == nil, "reference %s: %v", ri.sem, err); err == nil {
				it.want[v] = relSum(res.Relation, res.OK)
			}
		}
		out = append(out, it)
	}
	return out
}

// kernels times the fixpoints below the engine, and the engine's own
// dispatch, on the sampled originals.
func (lr *layerRun) kernels(ctx context.Context, items []item) {
	g := lr.in.g
	f := g.Freeze()
	eng := gpm.NewEngine(g, gpm.WithAutoOracle())
	// One oracle of the kind the daemon would pick, built before timing.
	var oracle core.DistOracle
	if eng.OracleKind() == gpm.OraclePLL {
		opts := pll.AutoOptions(f)
		opts.Workers = runtime.GOMAXPROCS(0)
		idx, err := pll.Build(ctx, f, opts)
		if lr.expect(err == nil, "pll.Build: %v", err); err != nil {
			return
		}
		oracle = core.NewPLLOracleFrozen(f, idx)
	} else {
		oracle = core.NewMatrixOracle(g, matrix.NewFrozen(f, runtime.GOMAXPROCS(0)))
	}
	var initial, final int64
	for _, it := range items {
		op := lr.op()
		p := it.pat[vOriginal]
		var rows [][]int32
		var ok bool
		var err error
		switch it.sem {
		case gpm.RelMatch:
			var st core.Stats
			lr.time("core.match_ms", -1, op, func() {
				var res *core.Result
				// One worker: the probe count must repeat exactly.
				if res, err = core.MatchOpts(ctx, p, g, oracle, &st, core.MatchOptions{Workers: 1, Frozen: f}); err == nil {
					rows, ok = res.Relation(), res.OK()
				}
			})
			lr.counts["core.oracle_probes"] += st.OracleQueries
			lr.counts["core.initial_pairs"] += st.InitialPairs
			lr.counts["core.removals"] += st.Removals
			initial += st.InitialPairs
			final += int64(countPairs(rows))
		case gpm.RelSim:
			lr.time("simulation.run_ms", -1, op, func() { rows, ok, err = simulation.RunFrozen(ctx, p, f) })
		case gpm.RelDual:
			lr.time("topo.dual_ms", -1, op, func() { rows, ok, err = topo.DualSim(ctx, p, f, topo.Options{Workers: 1}) })
		case gpm.RelStrong:
			lr.time("topo.strong_ms", -1, op, func() { rows, ok, err = topo.StrongSim(ctx, p, f, topo.Options{Workers: 1}) })
		}
		lr.expect(err == nil && relSum(rows, ok) == it.want[vOriginal], "%s kernel diverges from the reference (%v)", it.relItem.sem, err)

		lr.time("engine.relation_ms."+it.relItem.sem, -1, op, func() {
			res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: it.sem, Pattern: p})
			lr.expect(err == nil && relSum(res.Relation, res.OK) == it.want[vOriginal], "Engine.RelationQuery %s diverges from the reference (%v)", it.relItem.sem, err)
		})
	}
	if initial > 0 {
		lr.set("core.useful_pair_share", float64(final)/float64(initial), "ratio")
	}
}

// stepByStep sends the sampled items through the layers one call at a
// time, three passes over one cache: the originals (cold), their
// refinements (containment), the originals again (memo hit). It returns
// how long that took and, per item, what the layer calls of its cold
// request added up to.
func (lr *layerRun) stepByStep(ctx context.Context, eng *gpm.Engine, items []item) (elapsed time.Duration, coldChildren []time.Duration) {
	cache := qcache.New(64 << 20)
	start := time.Now()
	var seedPairs, resultPairs, canonCalls, canonFails int
	// request walks one text through the layers and returns what the calls
	// added up to.
	request := func(it *item, v int) (children time.Duration) {
		op := lr.op()
		root, _ := lr.tr.do("request", -1, op, func() {})
		step := func(metric string, f func()) { children += lr.time(metric, root, op, f) }
		var req client.QueryRequest
		step("server.decode_us", func() {
			dec := json.NewDecoder(bytes.NewReader(it.bodyOf[v]))
			dec.DisallowUnknownFields()
			lr.expect(dec.Decode(&req) == nil, "request body does not decode")
		})
		if digest, ctext, ok := cache.Canon(req.Pattern); ok {
			// The memoised path of a repeated text: one probe, cached bytes.
			var hit bool
			step("qcache.get_us", func() {
				_, _, _, hit = cache.Get(qcache.Key{Graph: graphName, Generation: eng.Generation(), Semantics: it.relItem.sem, Digest: digest}, ctext)
			})
			if hit {
				return children
			}
		}
		var p *pattern.Pattern
		step("gio.parse_pattern_us", func() {
			var err error
			p, err = gio.ReadPattern(strings.NewReader(req.Pattern))
			lr.expect(err == nil, "gio.ReadPattern: %v", err)
		})
		var c pattern.Canon
		var cerr error
		step("pattern.canonical_us", func() { c, cerr = p.Canonical() })
		canonCalls++
		if cerr != nil {
			canonFails++
			return children
		}
		cache.PutCanon(req.Pattern, c.Digest, c.Text)
		key := qcache.Key{Graph: graphName, Generation: eng.Generation(), Semantics: it.relItem.sem, Digest: c.Digest}
		step("qcache.get_us", func() { cache.Get(key, c.Text) })
		q := gpm.RelationQuery{Semantics: it.sem, Pattern: p}
		if it.sem != gpm.RelStrong {
			mode := pattern.ContainChild
			if it.sem == gpm.RelDual {
				mode = pattern.ContainDual
			}
			step("qcache.seed_us", func() { q.Seed, _ = cache.Seed(graphName, key.Generation, it.relItem.sem, p, mode) })
		}
		var res *gpm.RelationResult
		step("engine.relation_ms.traced", func() {
			var err error
			res, err = eng.RelationQuery(ctx, q)
			lr.expect(err == nil && relSum(res.Relation, res.OK) == it.want[v], "layered %s request diverges from the reference (%v)", it.relItem.sem, err)
		})
		if res == nil {
			return children
		}
		if q.Seed != nil {
			seedPairs += countPairs(q.Seed)
			resultPairs += countPairs(res.Relation)
		}
		step("qcache.put_us", func() { cache.Put(key, c.Text, p, res.Relation, res.OK) })
		step("server.encode_ms", func() {
			var buf bytes.Buffer
			err := json.NewEncoder(&buf).Encode(client.Relation{
				Graph: graphName, Semantics: it.relItem.sem, OK: res.OK, Pairs: countPairs(res.Relation), Matches: res.Relation,
				Stats: client.Stats{Oracle: res.Stats.Oracle.String(), MatchTimeNS: res.Stats.MatchTime.Nanoseconds()},
			})
			lr.expect(err == nil, "encode: %v", err)
		})
		return children
	}
	for i := range items {
		coldChildren = append(coldChildren, request(&items[i], vOriginal))
	}
	for i := range items {
		request(&items[i], vRefined)
	}
	for i := range items {
		request(&items[i], vOriginal)
	}
	if resultPairs > 0 {
		lr.set("qcache.seed_ratio", float64(seedPairs)/float64(resultPairs), "ratio")
	}
	lr.set("pattern.canonical_fail_share", float64(canonFails)/float64(max(canonCalls, 1)), "ratio")
	return time.Since(start), coldChildren
}

// requests replays the sampled items as requests twice over: once step
// by step through each layer's public functions, the way the server's
// relation handler strings them together (decode, parse, canonicalise,
// cache probe, engine, cache store, encode), and once through the real
// handler in-process. The first gives each layer its number, the second
// says what a request costs as a whole; trace.coverage is their ratio on
// the cold path.
func (lr *layerRun) requests(ctx context.Context, items []item) error {
	eng := gpm.NewEngine(lr.in.g, gpm.WithAutoOracle())
	if _, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: items[0].pat[vOriginal]}); err != nil {
		return err // pays the oracle build before timing
	}
	// On a scratch run that records no spans (twice: the first pass warms
	// the engine and the processor's caches for both sides), then for real.
	// The difference is what tracing costs.
	quiet := &layerRun{tr: tracer{off: true}, in: lr.in, samples: map[string][]float64{}, values: map[string]metric{}, counts: map[string]int64{}}
	quiet.stepByStep(ctx, eng, items)
	untraced, _ := quiet.stepByStep(ctx, eng, items)
	traced, coldChildren := lr.stepByStep(ctx, eng, items)
	lr.set("trace.overhead_share", (traced-untraced).Seconds()/untraced.Seconds(), "ratio")
	delete(lr.samples, "engine.relation_ms.traced") // reported per semantics by kernels
	for _, it := range items {
		if it.sem != gpm.RelStrong {
			lr.time("pattern.containment_us", -1, lr.op(), func() {
				_, ok := pattern.Containment(it.pat[vOriginal], it.pat[vRefined], pattern.ContainChild)
				lr.expect(ok, "original does not contain its refinement")
			})
		}
	}

	// The real handler, in-process: cold, containment, memo-missing exact
	// hit, plain hit.
	srv := server.New(server.Config{CacheBytes: 64 << 20})
	if err := srv.Bind(graphName, lr.in.g.Clone()); err != nil {
		return err
	}
	defer srv.Close()
	var paths [4]int // memo hit, exact hit, containment, cold
	serve := func(metric string, it *item, v int, wantMarker string) {
		op := lr.op()
		rw := httptest.NewRecorder()
		req := httptest.NewRequest("POST", semPath[it.relItem.sem], bytes.NewReader(it.bodyOf[v]))
		if metric == "" {
			srv.ServeHTTP(rw, req)
		} else {
			lr.time(metric, -1, op, func() { srv.ServeHTTP(rw, req) })
		}
		var rel client.Relation
		err := json.Unmarshal(rw.Body.Bytes(), &rel)
		want := it.want[v]
		if v == vRespelled {
			want = it.want[vOriginal]
		}
		lr.expect(err == nil && rw.Code == 200 && relSum(rel.Matches, rel.OK) == want, "handler %s %s: HTTP %d, diverges from the reference", it.relItem.sem, wantMarker, rw.Code)
		if it.sem == gpm.RelStrong && wantMarker == "containment" {
			wantMarker = "" // strong has no containment path
		}
		lr.expect(rel.Stats.Cache == wantMarker, "handler %s took cache path %q, want %q", it.relItem.sem, rel.Stats.Cache, wantMarker)
		switch {
		case rel.Stats.Cache == "hit" && v == vRespelled:
			paths[1]++
		case rel.Stats.Cache == "hit":
			paths[0]++
		case rel.Stats.Cache == "containment":
			paths[2]++
		default:
			paths[3]++
		}
		if metric == "server.handler_ms.cold" {
			lr.samples["server.response_bytes"] = append(lr.samples["server.response_bytes"], float64(rw.Body.Len()))
		}
	}
	for i := range items {
		serve("server.handler_ms.cold", &items[i], vOriginal, "")
	}
	for i := range items {
		serve("server.handler_ms.containment", &items[i], vRefined, "containment")
	}
	for i := range items {
		serve("", &items[i], vRespelled, "hit")
		serve("", &items[i], vOriginal, "hit") // memoises the response bytes
		serve("server.handler_ms.hit", &items[i], vOriginal, "hit")
	}
	total := float64(paths[0] + paths[1] + paths[2] + paths[3])
	for i, name := range []string{"qcache.memo_hit_share", "qcache.exact_hit_share", "qcache.containment_share", "qcache.cold_share"} {
		lr.set(name, float64(paths[i])/total, "ratio")
	}
	st := srv.StatsSnapshot()
	lr.set("qcache.evictions", float64(st.Cache.Evictions), "count")
	lr.set("qcache.bytes", float64(st.Cache.Bytes), "B")
	lr.values["server.response_bytes"] = metric{median(lr.samples["server.response_bytes"]), "B"}
	delete(lr.samples, "server.response_bytes")
	// Item by item: what the layer calls of a cold request added up to,
	// over what the handler took for the same request.
	var coverage []float64
	for i, ms := range lr.samples["server.handler_ms.cold"] {
		coverage = append(coverage, coldChildren[i].Seconds()*1e3/ms)
	}
	lr.set("trace.coverage", median(coverage), "ratio")
	return nil
}

// loopback serves the sampled items from an in-process http.Server on a
// loopback port: cold, per semantics, on a cache-less server; then as
// hits in a closed loop on a warmed one. The difference between a hit
// over loopback and a hit in the handler is the wire tax.
func (lr *layerRun) loopback(ctx context.Context, items []item, dur time.Duration) error {
	listen := func(cfg server.Config) (base string, stop func(), err error) {
		srv := server.New(cfg)
		if err := srv.Bind(graphName, lr.in.g.Clone()); err != nil {
			return "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		hs := &http.Server{Handler: srv}
		done := make(chan struct{})
		go func() { defer close(done); hs.Serve(ln) }()
		return "http://" + ln.Addr().String(), func() { srv.Close(); hs.Close(); <-done }, nil
	}
	hc := newHTTPClient(2)
	defer hc.CloseIdleConnections()
	var ops []op
	for i, it := range items {
		ops = append(ops, op{kind: it.relItem.sem, path: semPath[it.relItem.sem], body: it.bodyOf[vOriginal], ref: i})
	}
	order := make([]int32, len(ops))
	for i := range order {
		order[i] = int32(i)
	}
	target := func(base string) *target {
		t := &target{hc: hc, base: base, ops: ops, order: order}
		t.check = func(o *op, body []byte, _ int64) (string, error) {
			var rel client.Relation
			if err := json.Unmarshal(body, &rel); err != nil {
				return "", err
			}
			if relSum(rel.Matches, rel.OK) != items[o.ref].want[vOriginal] {
				return rel.Stats.Cache, fmt.Errorf("loopback %s diverges from the reference", o.kind)
			}
			return rel.Stats.Cache, nil
		}
		return t
	}
	tally := func(l load) {
		n, first := l.failed()
		lr.attempted += len(l.samples)
		lr.failed += n
		if lr.first == "" {
			lr.first = first
		}
	}

	cold, stop, err := listen(server.Config{})
	if err != nil {
		return err
	}
	l := target(cold).closedLoop(ctx, 1, dur)
	stop()
	tally(l)
	for _, sem := range semantics {
		ls := l.latencies(func(s *sample) bool { return ops[s.op].kind == sem })
		lr.set("server.latency_p50_ms."+sem, percentile(ls, 50), "ms")
	}

	warm, stop, err := listen(server.Config{CacheBytes: 64 << 20})
	if err != nil {
		return err
	}
	defer stop()
	t := target(warm)
	tally(t.closedLoop(ctx, 1, dur/4)) // fills the cache and the memo
	l = t.closedLoop(ctx, 1, dur)
	tally(l)
	lr.set("server.wire_tax_ms", percentile(l.latencies(nil), 50)-median(lr.samples["server.handler_ms.hit"]), "ms")
	return nil
}

// The rate ladder: multiples of the frozen reference rate hotZipfRate,
// the same for every workload and every commit, and the p99 a rung has to
// stay under. A rung that falls ladderGiveUp behind its schedule is
// abandoned: its backlog is growing.
var ladderRungs = [...]float64{0.5, 1, 2, 4}

const (
	ladderLimitMS = 5
	ladderGiveUp  = 20 * ladderLimitMS * time.Millisecond
)

// ladder starts a gpmd child the way the workload's end-to-end run does,
// warms it, and sends it the workload's own requests in an open loop at
// each rung's rate for seconds/8, successive stretches of the issue order
// on a fixed Poisson schedule. loadgen.max_rate_ok is the highest rate
// such that it and every rung below it kept p99, timed from the due time,
// within the limit; a backlog that grows pushes p99 past any limit, so
// that one test covers both. 0 means the workload's requests cannot be
// served at R/2 (a closed-loop workload of millisecond requests).
func (lr *layerRun) ladder(ctx context.Context, e *env, w *workload, rf *refs, tmp string, seconds float64) error {
	graphFile, err := lr.in.write(tmp)
	if err != nil {
		return err
	}
	fresh := *w
	fresh.recovers = false // a first boot, not a recovery
	r := &run{w: &fresh, in: lr.in, rf: rf, ctx: ctx, hc: newHTTPClient(w.clients + 1)}
	defer r.hc.CloseIdleConnections()
	d, err := startDaemon(e.gpmd, r.flags(graphFile, filepath.Join(tmp, "wal-ladder"))...)
	if err != nil {
		return err
	}
	defer d.kill()
	if err := r.ready(d); err != nil {
		return err
	}
	t := r.target(d)
	t.giveUp = ladderGiveUp
	best, sent := 0.0, 0
	for _, mult := range ladderRungs {
		rate := hotZipfRate * mult
		rnd := rand.New(rand.NewSource(int64(rate)))
		var arrivals []time.Duration
		for at := rnd.ExpFloat64() / rate; at < seconds/8; at += rnd.ExpFloat64() / rate {
			arrivals = append(arrivals, time.Duration(at*float64(time.Second)))
		}
		t.order = append(append([]int32(nil), lr.in.order[sent%len(lr.in.order):]...), lr.in.order[:sent%len(lr.in.order)]...)
		rung := t.openLoop(ctx, 2, arrivals)
		sent += len(rung.samples)
		n, first := rung.failed()
		lr.attempted += len(rung.samples)
		lr.failed += n
		if lr.first == "" {
			lr.first = first
		}
		if mult <= 1 {
			lr.set("loadgen.late_p99_ms", percentile(rung.lateness(), 99), "ms")
		}
		if len(rung.samples) < len(arrivals) || n > 0 || percentile(rung.latencies(nil), 99) > ladderLimitMS {
			break
		}
		best = rate
	}
	lr.set("loadgen.max_rate_ok", best, "1/s")
	return nil
}

// updateBatches is the head of the workload's update stream in the
// engine's own type.
func (lr *layerRun) updateBatches() [][]incremental.Update {
	batches := make([][]incremental.Update, lr.batches)
	for i := range batches {
		ops, _ := lr.in.batch(i)
		for _, o := range ops {
			batches[i] = append(batches[i], incremental.Update{Insert: o.Op == "+", U: o.U, V: o.V})
		}
	}
	return batches
}

// updates times the write path below the server: the engine's Update
// with the four watch sessions open, and each incremental maintainer on
// its own.
func (lr *layerRun) updates() {
	batches := lr.updateBatches()
	var pats [4]*pattern.Pattern
	for k := range semantics {
		pats[k] = mustPattern(lr.in.watch[k])
	}

	eng := gpm.NewEngine(lr.in.g.Clone(), gpm.WithAutoOracle())
	opens := []func(*gpm.Pattern) (*gpm.Watcher, error){eng.Watch, eng.WatchSim, eng.WatchDual, eng.WatchStrong}
	for k, open := range opens {
		_, err := open(pats[k])
		lr.expect(err == nil, "watch %s: %v", semantics[k], err)
	}
	for _, b := range batches {
		lr.time("engine.update_ms", -1, lr.op(), func() {
			_, err := eng.Update(b...)
			lr.expect(err == nil, "Engine.Update: %v", err)
		})
	}

	var deltaPairs, recomputed, applied int
	for k, sem := range semantics {
		g := lr.in.g.Clone()
		var m interface {
			Apply([]incremental.Update) (incremental.Delta, error)
		}
		var err error
		switch sem {
		case "match":
			m, err = incremental.NewMatcher(pats[k], incremental.NewDynMatrix(g))
		case "sim":
			m, err = incremental.NewSimMatcher(pats[k], g, true)
		case "dual":
			m, err = incremental.NewSimMatcher(pats[k], g, false)
		case "strong":
			m, err = incremental.NewStrongMatcher(pats[k], g, runtime.GOMAXPROCS(0))
		}
		if lr.expect(err == nil, "maintainer %s: %v", sem, err); err != nil {
			continue
		}
		for _, b := range batches {
			lr.time("incremental.batch_ms."+sem, -1, lr.op(), func() {
				d, err := m.Apply(b)
				lr.expect(err == nil, "%s maintainer: %v", sem, err)
				deltaPairs += len(d.Added) + len(d.Removed)
				applied++
				if d.Recomputed {
					recomputed++
				}
			})
		}
	}
	lr.counts["incremental.delta_pairs"] = int64(deltaPairs)
	lr.set("incremental.recomputed_share", float64(recomputed)/float64(max(applied, 1)), "ratio")
}

// wal times the log: appends with and without fsync, a snapshot, a
// reopen, and the replay a server does when it binds the recovered graph.
func (lr *layerRun) wal(tmp string) error {
	batches := lr.updateBatches()
	dirSize := func(dir string) (n int64) {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return n
	}
	appendAll := func(w *wal.WAL, metric string) error {
		for _, b := range batches {
			var err error
			lr.time(metric, -1, lr.op(), func() { err = w.AppendUpdate(graphName, b) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	snapshot := func(w *wal.WAL) error {
		return w.Snapshot(wal.SnapshotState{NextID: 4, Graphs: []wal.GraphSnapshot{{
			Name:       graphName,
			WriteGraph: func(out io.Writer) error { return gio.WriteGraph(out, lr.in.g) },
		}}})
	}

	dir := filepath.Join(tmp, "wal-none")
	w, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	// A snapshot first, as gpmd takes at boot: replay starts from it.
	var serr error
	lr.time("wal.snapshot_ms", -1, lr.op(), func() { serr = snapshot(w) })
	if serr != nil {
		return serr
	}
	before := dirSize(dir)
	if err := appendAll(w, "wal.append_us"); err != nil {
		return err
	}
	lr.set("wal.append_bytes", float64(dirSize(dir)-before)/float64(lr.batches), "B")
	if err := w.Close(); err != nil {
		return err
	}
	var rec *wal.Recovery
	var w2 *wal.WAL
	lr.time("wal.open_ms", -1, lr.op(), func() { w2, rec, err = wal.Open(dir, wal.Options{Sync: wal.SyncNone}) })
	if err != nil {
		return err
	}
	defer w2.Close()
	lr.expect(rec.Batches == lr.batches, "reopened log holds %d batches, appended %d", rec.Batches, lr.batches)
	srv := server.New(server.Config{WAL: w2, Recovery: rec})
	defer srv.Close()
	if err := srv.Bind(graphName, lr.in.g.Clone()); err != nil {
		return err
	}
	if ws := srv.StatsSnapshot().WAL; ws != nil && ws.RecoveredBatches > 0 {
		lr.set("wal.replay_ms_per_batch", ws.ReplayMS/float64(ws.RecoveredBatches), "ms")
	}

	wa, _, err := wal.Open(filepath.Join(tmp, "wal-always"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer wa.Close()
	if err := appendAll(wa, "wal.append_always_us"); err != nil {
		return err
	}
	lr.set("wal.fsync_us", median(lr.samples["wal.append_always_us"])-median(lr.samples["wal.append_us"]), "us")
	delete(lr.samples, "wal.append_always_us")
	return nil
}

// enumeration times the planner and both search strategies on the plan
// shapes and a few generator patterns.
func (lr *layerRun) enumeration(ctx context.Context) {
	f := lr.in.g.Freeze()
	eng := gpm.NewEngine(lr.in.g)
	iso := lr.in.iso[:min(len(lr.in.iso), sampleIso)]
	for i, text := range iso {
		op := lr.op()
		p := mustPattern(text)
		lr.time("plan.build_us", -1, op, func() {
			_, err := plan.Build(p, f)
			lr.expect(err == nil, "plan.Build: %v", err)
		})
		var opts gpm.IsoOptions
		var planned *gpm.EnumerationResult
		lr.time("plan.enumerate_ms", -1, op, func() { planned, _ = eng.Enumerate(ctx, p, opts) })
		var cnt *gpm.CountResult
		lr.time("plan.count_ms", -1, op, func() { cnt, _ = eng.CountEmbeddings(ctx, p, opts) })
		if lr.expect(planned != nil && cnt != nil, "enumeration returned nothing"); planned == nil || cnt == nil {
			continue
		}
		lr.counts["plan.steps"] += planned.Steps
		lr.counts["plan.embeddings"] += int64(len(planned.Embeddings))
		if planned.Complete && cnt.Complete {
			lr.expect(cnt.Count == int64(len(planned.Embeddings)), "/count %d != %d enumerated", cnt.Count, len(planned.Embeddings))
		}
		if i%2 == 0 { // sampled: the unplanned search is the slow one
			opts.NoPlan = true
			lr.time("subiso.unplanned_ms", -1, op, func() {
				plain, _ := eng.Enumerate(ctx, p, opts)
				if plain != nil && plain.Complete && planned.Complete {
					lr.expect(len(plain.Embeddings) == len(planned.Embeddings), "planned and unplanned searches disagree")
				}
			})
		}
	}
}
