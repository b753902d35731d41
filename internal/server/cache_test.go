package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gpm"
	"gpm/client"
	"gpm/internal/server"
)

// cacheConfig is the suite's standard cache-enabled server config.
func cacheConfig() server.Config {
	return server.Config{CacheBytes: 1 << 20}
}

// reverseTestPattern rebuilds p with node ids reversed and edges in
// reverse insertion order — an isomorphic pattern whose canonical digest
// must equal p's, so the server must serve it from p's cache entry.
func reverseTestPattern(p *gpm.Pattern) *gpm.Pattern {
	n := p.N()
	q := gpm.NewPattern()
	for i := 0; i < n; i++ {
		q.AddNode(nil)
	}
	for u := 0; u < n; u++ {
		q.SetPred(n-1-u, p.Pred(u))
	}
	es := p.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		e := es[i]
		if _, err := q.AddColoredEdge(n-1-e.From, n-1-e.To, e.Bound, e.Color); err != nil {
			panic(err)
		}
	}
	return q
}

// containGraph is a small labeled graph for the containment tests.
func containGraph() *gpm.Graph {
	g := gpm.NewGraph(12)
	labels := []string{"A", "B", "A", "B", "A", "B", "C", "A", "B", "C", "A", "B"}
	for i, l := range labels {
		g.SetAttr(i, gpm.Attrs{"label": gpm.Str(l)})
	}
	for i := 0; i < 11; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(11, 0)
	g.AddEdge(0, 3)
	g.AddEdge(4, 1)
	g.AddEdge(6, 2)
	g.AddEdge(9, 4)
	return g
}

// edgePattern builds a 2-node single-edge pattern; empty labels are
// wildcards.
func edgePattern(from, to string) *gpm.Pattern {
	p := gpm.NewPattern()
	var fp, tp gpm.Predicate
	if from != "" {
		fp = gpm.Label(from)
	}
	if to != "" {
		tp = gpm.Label(to)
	}
	a := p.AddNode(fp)
	b := p.AddNode(tp)
	p.MustAddEdge(a, b, 1)
	return p
}

var semanticsPaths = map[string]string{
	"match": "/match", "sim": "/simulate", "dual": "/dual", "strong": "/strong",
}

// queryRaw posts one relation query and returns the raw body plus its
// decoded form.
func queryRaw(t *testing.T, ts *httptest.Server, sem, graph, text string) ([]byte, client.Relation) {
	t.Helper()
	body := encodeWire(t, client.QueryRequest{Graph: graph, Pattern: text})
	status, raw := postRaw(t, ts.Client(), ts.URL, semanticsPaths[sem], string(body))
	if status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", sem, status, raw)
	}
	var rel client.Relation
	if err := json.Unmarshal(raw, &rel); err != nil {
		t.Fatal(err)
	}
	return raw, rel
}

// scrubStats grafts got's stats into a raw expected document so the
// comparison pins every byte except the wall-clock block, exactly like
// TestByteIdenticalToEngine.
func scrubStats(t *testing.T, raw []byte, stats client.Stats) []byte {
	t.Helper()
	var rel client.Relation
	if err := json.Unmarshal(raw, &rel); err != nil {
		t.Fatal(err)
	}
	rel.Stats = stats
	return encodeWire(t, rel)
}

// TestCacheHitByteIdentity: with the cache on, a repeated query — and an
// isomorphic relabeled spelling of it — must be served from the cache
// ("hit" marker) with a body byte-identical (modulo the stats block) to
// the cold answer for the spelling that was sent: the relabeled spelling
// gets its rows in its own node numbering, not the cached spelling's.
// Repeats in either order must not let one spelling's memoised bytes
// answer the other.
func TestCacheHitByteIdentity(t *testing.T) {
	g := testGraph()
	ref := gpm.NewEngine(g.Clone())
	srv := server.New(cacheConfig())
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ctx := context.Background()

	for _, sem := range []string{"match", "sim", "dual", "strong"} {
		t.Run(sem, func(t *testing.T) {
			relSem, err := gpm.ParseRelSemantics(sem)
			if err != nil {
				t.Fatal(err)
			}
			// coldBody is the engine's cold answer for q, carrying stats.
			coldBody := func(q *gpm.Pattern, pairs int, stats client.Stats) []byte {
				res, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: relSem, Pattern: q})
				if err != nil {
					t.Fatal(err)
				}
				return encodeWire(t, client.Relation{Graph: "g", Semantics: sem, OK: res.OK, Pairs: pairs, Matches: res.Relation, Stats: stats})
			}
			p := testPattern(g, 5)
			iso := reverseTestPattern(p)
			text, isoText := patternText(t, p), patternText(t, iso)
			cold, coldRel := queryRaw(t, ts, sem, "g", text)
			if coldRel.Stats.Cache != "" {
				t.Fatalf("cold query carries cache marker %q", coldRel.Stats.Cache)
			}
			if want := coldBody(p, coldRel.Pairs, coldRel.Stats); !bytes.Equal(cold, want) {
				t.Fatalf("cold response diverges from engine:\ngot:  %s\nwant: %s", cold, want)
			}
			isoWant := coldBody(iso, coldRel.Pairs, coldRel.Stats)

			for i, q := range []struct {
				name, text string
				want       []byte
			}{
				{"repeat", text, cold},
				{"relabeled", isoText, isoWant},
				{"repeat after relabeled", text, cold},
				{"relabeled again", isoText, isoWant},
			} {
				hit, hitRel := queryRaw(t, ts, sem, "g", q.text)
				if hitRel.Stats.Cache != "hit" {
					t.Fatalf("%d %s: cache marker = %q, want \"hit\" (canonical digests must collide)", i, q.name, hitRel.Stats.Cache)
				}
				if !bytes.Equal(scrubStats(t, hit, coldRel.Stats), q.want) {
					t.Fatalf("%d %s: hit differs from the cold answer for the spelling sent:\nhit:  %s\nwant: %s", i, q.name, hit, q.want)
				}
			}
		})
	}
}

// TestCacheContainmentReuse: after caching a loose pattern's relation, a
// strictly contained pattern must be answered via the containment path
// ("containment" marker) with rows byte-identical to a cold engine
// answer. Strong simulation must NOT take the containment path.
func TestCacheContainmentReuse(t *testing.T) {
	g := containGraph()
	ref := gpm.NewEngine(g.Clone())
	srv := server.New(cacheConfig())
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ctx := context.Background()

	loose := edgePattern("", "") // wildcard edge: contains every 2-node edge pattern
	strict := edgePattern("A", "B")
	looseText, strictText := patternText(t, loose), patternText(t, strict)

	for _, sem := range []string{"match", "sim", "dual"} {
		t.Run(sem, func(t *testing.T) {
			if _, rel := queryRaw(t, ts, sem, "g", looseText); rel.Stats.Cache == "hit" {
				t.Fatal("first loose query hit an empty cache")
			}
			raw, rel := queryRaw(t, ts, sem, "g", strictText)
			if rel.Stats.Cache != "containment" {
				t.Fatalf("strict query cache marker = %q, want \"containment\"", rel.Stats.Cache)
			}
			relSem, err := gpm.ParseRelSemantics(sem)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: relSem, Pattern: strict})
			if err != nil {
				t.Fatal(err)
			}
			want := client.Relation{Graph: "g", Semantics: sem, OK: res.OK, Pairs: rel.Pairs, Matches: res.Relation, Stats: rel.Stats}
			if !bytes.Equal(raw, encodeWire(t, want)) {
				t.Fatalf("containment-derived response diverges from cold engine answer:\ngot:  %s\nwant: %s", raw, encodeWire(t, want))
			}
			// The derived answer is cached too: a repeat is an exact hit.
			if _, rel := queryRaw(t, ts, sem, "g", strictText); rel.Stats.Cache != "hit" {
				t.Errorf("repeat of containment-derived query marker = %q, want \"hit\"", rel.Stats.Cache)
			}
		})
	}

	t.Run("strong", func(t *testing.T) {
		queryRaw(t, ts, "strong", "g", looseText)
		if _, rel := queryRaw(t, ts, "strong", "g", strictText); rel.Stats.Cache != "" {
			t.Fatalf("strong semantics took cache path %q; only exact hits are sound", rel.Stats.Cache)
		}
	})
}

// TestCacheGenerationInvalidation: an effective update moves the graph
// to a new generation, so the same query misses, recomputes against the
// new graph, and matches a fresh engine that saw the same update.
func TestCacheGenerationInvalidation(t *testing.T) {
	g := containGraph()
	refG := containGraph()
	srv := server.New(cacheConfig())
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	p := edgePattern("A", "B")
	text := patternText(t, p)
	queryRaw(t, ts, "sim", "g", text)
	if _, rel := queryRaw(t, ts, "sim", "g", text); rel.Stats.Cache != "hit" {
		t.Fatalf("warmup marker = %q, want \"hit\"", rel.Stats.Cache)
	}

	ups := []gpm.Update{gpm.DeleteEdge(0, 1), gpm.InsertEdge(2, 5)}
	if _, _, err := c.Update(ctx, "g", ups); err != nil {
		t.Fatal(err)
	}
	raw, rel := queryRaw(t, ts, "sim", "g", text)
	if rel.Stats.Cache == "hit" {
		t.Fatal("query after an effective update served the stale generation's entry")
	}
	ref := gpm.NewEngine(refG)
	if _, err := ref.Update(ups...); err != nil {
		t.Fatal(err)
	}
	res, err := ref.Simulate(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	want := client.Relation{Graph: "g", Semantics: "sim", OK: res.OK, Pairs: rel.Pairs, Matches: res.Relation, Stats: rel.Stats}
	if !bytes.Equal(raw, encodeWire(t, want)) {
		t.Fatalf("post-update response diverges from fresh engine:\ngot:  %s\nwant: %s", raw, encodeWire(t, want))
	}
}

// TestCacheNoopUpdateKeepsEntries is the regression the generation
// token buys: a net-no-op update batch (insert then delete of the same
// edge) must not bump the generation, so cached entries stay live and
// the next query is still an exact hit — no eviction, no recompute.
func TestCacheNoopUpdateKeepsEntries(t *testing.T) {
	srv := server.New(cacheConfig())
	if err := srv.Bind("g", containGraph()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	text := patternText(t, edgePattern("A", "B"))
	queryRaw(t, ts, "match", "g", text)
	st := srv.StatsSnapshot().Cache
	if st == nil {
		t.Fatal("stats lack the cache block")
	}
	entriesBefore := st.Entries

	for _, ups := range [][]gpm.Update{
		{}, // empty batch
		{gpm.InsertEdge(0, 5), gpm.DeleteEdge(0, 5)}, // net no-op
	} {
		if _, _, err := c.Update(ctx, "g", ups); err != nil {
			t.Fatal(err)
		}
	}
	st = srv.StatsSnapshot().Cache
	if st.Entries != entriesBefore {
		t.Fatalf("no-op updates changed cache entries: %d -> %d", entriesBefore, st.Entries)
	}
	if st.Evictions != 0 {
		t.Fatalf("no-op updates evicted %d entries", st.Evictions)
	}
	if _, rel := queryRaw(t, ts, "match", "g", text); rel.Stats.Cache != "hit" {
		t.Fatalf("query after no-op updates marker = %q, want \"hit\"", rel.Stats.Cache)
	}
}

// TestStatsCacheBlock pins the /stats cache block the way the recovery
// suite pins the WAL block: the volatile byte figure is scrubbed, the
// counters are asserted exactly for a scripted workload — two cold
// queries, one exact hit, one containment reuse.
func TestStatsCacheBlock(t *testing.T) {
	srv := server.New(cacheConfig())
	if err := srv.Bind("g", containGraph()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	looseText := patternText(t, edgePattern("", ""))
	strictText := patternText(t, edgePattern("A", "B"))
	queryRaw(t, ts, "sim", "g", looseText)  // miss, cold
	queryRaw(t, ts, "sim", "g", looseText)  // exact hit
	queryRaw(t, ts, "sim", "g", strictText) // miss, containment reuse

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("stats lack the cache block")
	}
	got := *st.Cache
	if got.Bytes <= 0 {
		t.Fatalf("cache bytes = %d, want > 0", got.Bytes)
	}
	got.Bytes = 0 // entry sizes are an implementation detail; scrub
	want := client.CacheStats{
		Hits:            1,
		Misses:          2,
		ContainmentHits: 1,
		Evictions:       0,
		Entries:         2,
		MaxBytes:        cacheConfig().CacheBytes,
	}
	if got != want {
		t.Errorf("cache block = %+v, want %+v", got, want)
	}

	// A server without a cache serves no block at all.
	bare := server.New(server.Config{})
	defer bare.Close()
	if bare.StatsSnapshot().Cache != nil {
		t.Error("cache-less server emitted a cache stats block")
	}
}
