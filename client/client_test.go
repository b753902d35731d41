package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/server"
)

// testGraph is the graph every test serves: big enough for each
// semantics to do real work, small enough to keep the suite quick.
func testGraph() *gpm.Graph {
	return gpm.GenerateGraph(gpm.GraphGenConfig{Nodes: 300, Edges: 900, Attrs: 12, Model: gpm.ModelER, Seed: 7})
}

// testPattern is an all-bounds-one pattern, valid for every semantics.
func testPattern(g *gpm.Graph, seed int64) *gpm.Pattern {
	return gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 1, PredAttrs: 1, IsoBias: true, Seed: seed}, g)
}

// daemon is an internal/server over one graph named "g", behind an
// httptest server that records the timeout_ms of every POST body.
type daemon struct {
	c         *client.Client
	timeoutMS atomic.Int64 // the last POST body's timeout_ms
}

func boot(t *testing.T, cfg server.Config, g *gpm.Graph, opts ...gpm.EngineOption) *daemon {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Bind("g", g, opts...); err != nil {
		t.Fatal(err)
	}
	d := &daemon{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var q struct {
				TimeoutMS int64 `json:"timeout_ms"`
			}
			if json.Unmarshal(body, &q) == nil {
				d.timeoutMS.Store(q.TimeoutMS)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	d.c = client.New(ts.URL+"/", client.WithHTTPClient(ts.Client()))
	return d
}

// statusOf returns the HTTP status of a *client.Error, or 0.
func statusOf(err error) int {
	var ce *client.Error
	if errors.As(err, &ce) {
		return ce.StatusCode
	}
	return 0
}

// TestRoundTrip drives every typed method against a live server and
// checks each answer against an in-process engine on a clone of the
// same graph.
func TestRoundTrip(t *testing.T) {
	g := testGraph()
	ref := gpm.NewEngine(g.Clone(), gpm.WithAutoOracle())
	d := boot(t, server.Config{}, g, gpm.WithAutoOracle())
	c := d.c
	ctx := context.Background()
	p := testPattern(g, 6) // bounded simulation matches it

	if !c.Healthy(ctx) {
		t.Fatal("daemon not healthy")
	}
	infos, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := []client.GraphInfo{{Name: "g", Nodes: g.N(), Edges: g.M(), Oracle: "none", Workers: ref.Workers()}}; !reflect.DeepEqual(infos, want) {
		t.Fatalf("Graphs = %+v, want %+v", infos, want)
	}

	for _, row := range []struct {
		sem  gpm.RelSemantics
		call func(context.Context, string, *gpm.Pattern) (*client.Relation, error)
	}{
		{gpm.RelMatch, c.Match},
		{gpm.RelSim, c.Simulate},
		{gpm.RelDual, c.DualSimulate},
		{gpm.RelStrong, c.StrongSimulate},
	} {
		got, err := row.call(ctx, "g", p)
		if err != nil {
			t.Fatalf("%v: %v", row.sem, err)
		}
		want, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: row.sem, Pattern: p})
		if err != nil {
			t.Fatal(err)
		}
		if got.Graph != "g" || got.Semantics != row.sem.String() || got.OK != want.OK || !reflect.DeepEqual(got.Matches, want.Relation) {
			t.Errorf("%v: got %+v, want ok=%v %v", row.sem, got, want.OK, want.Relation)
		}
		if row.sem == gpm.RelMatch && (!got.OK || got.Stats.Oracle != "none" || got.Stats.OracleBuildNS != 0) {
			t.Errorf("match = %+v, want a match with no oracle and no build", got)
		}
	}

	batch, err := c.MatchBatch(ctx, "g", []*gpm.Pattern{p, testPattern(g, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("MatchBatch returned %d results, want 2", len(batch))
	}
	for i, q := range []*gpm.Pattern{p, testPattern(g, 4)} {
		want, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: q})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].OK != want.OK || !reflect.DeepEqual(batch[i].Matches, want.Relation) {
			t.Errorf("batch %d diverges from the in-process match query", i)
		}
	}

	// A two-edge path embeds somewhere in the graph, so the enumeration
	// has something to carry.
	path := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 2, K: 1, PredAttrs: 1, IsoBias: true, Seed: 1}, g)
	enum, err := c.Enumerate(ctx, "g", path, client.EnumerateOptions{MaxEmbeddings: 50})
	if err != nil {
		t.Fatal(err)
	}
	wantEnum, err := ref.Enumerate(ctx, path, gpm.IsoOptions{MaxEmbeddings: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(enum.Embeddings) == 0 || !reflect.DeepEqual(enum.Embeddings, wantEnum.Embeddings) || enum.Complete != wantEnum.Complete {
		t.Errorf("Enumerate: %d embeddings (complete %v), want %d (complete %v)", len(enum.Embeddings), enum.Complete, len(wantEnum.Embeddings), wantEnum.Complete)
	}
	cnt, err := c.Count(ctx, "g", path, client.EnumerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantCnt, err := ref.CountEmbeddings(ctx, path, gpm.IsoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Count == 0 || cnt.Count != wantCnt.Count || !cnt.Complete || cnt.Automorphisms != wantCnt.Automorphisms {
		t.Errorf("Count = %+v, want %d embeddings, %d automorphisms", cnt, wantCnt.Count, wantCnt.Automorphisms)
	}

	st, err := c.Watch(ctx, "g", p, "sim")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ref.WatchSim(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Semantics != "sim" || st.OK != w.OK() || !reflect.DeepEqual(st.Matches, w.Relation()) {
		t.Fatalf("Watch = %+v, want the engine's watcher", st)
	}
	e := g.EdgeList()[0]
	ups := []gpm.Update{gpm.DeleteEdge(int(e[0]), int(e[1])), gpm.InsertEdge(int(e[1]), int(e[0]))}
	header, deltas, err := c.Update(ctx, "g", ups)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Update(ups...); err != nil {
		t.Fatal(err)
	}
	if header.Graph != "g" || header.Applied != len(ups) || header.Watchers != 1 || len(deltas) != 1 || deltas[0].WatchID != st.ID {
		t.Fatalf("Update = %+v %+v, want %d applied and one delta for watch %d", header, deltas, len(ups), st.ID)
	}
	snap, err := c.WatchSnapshot(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != st.ID || snap.Pairs != deltas[0].Pairs || !reflect.DeepEqual(snap.Matches, w.Relation()) {
		t.Errorf("WatchSnapshot after Update = %+v, want the engine's watcher", snap)
	}
	if err := c.CloseWatch(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WatchSnapshot(ctx, st.ID); statusOf(err) != http.StatusNotFound {
		t.Errorf("WatchSnapshot of a closed watch: %v, want 404", err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range []string{"match", "sim", "dual", "strong"} {
		if stats.Queries[sem] == 0 {
			t.Errorf("Stats.Queries[%q] = 0", sem)
		}
	}
	if stats.Updates != 1 || stats.UpdateEdges != int64(len(ups)) || stats.WatchesOpened != 1 || stats.OracleBuildNS != 0 {
		t.Errorf("Stats = %+v, want 1 update of %d edges, 1 watch and no oracle build", stats, len(ups))
	}
}

// TestDeadlineForwarded: a ctx deadline travels as timeout_ms, rounded
// down to the milliseconds left; a ctx without one sends none.
func TestDeadlineForwarded(t *testing.T) {
	g := testGraph()
	d := boot(t, server.Config{}, g)
	p := testPattern(g, 3)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := d.c.Match(ctx, "g", p); err != nil {
		t.Fatal(err)
	}
	if ms := d.timeoutMS.Load(); ms <= 0 || ms > 20000 {
		t.Errorf("timeout_ms = %d under a 20 s deadline, want (0, 20000]", ms)
	}
	if _, err := d.c.Count(ctx, "g", p, client.EnumerateOptions{}); err != nil {
		t.Fatal(err)
	}
	if ms := d.timeoutMS.Load(); ms <= 0 || ms > 20000 {
		t.Errorf("/count timeout_ms = %d under a 20 s deadline, want (0, 20000]", ms)
	}
	if _, err := d.c.Match(context.Background(), "g", p); err != nil {
		t.Fatal(err)
	}
	if ms := d.timeoutMS.Load(); ms != 0 {
		t.Errorf("timeout_ms = %d with no deadline, want 0", ms)
	}
}

// TestErrorStatuses: the daemon's 400, 404 and 504 surface as
// *client.Error with that status and the server's message.
func TestErrorStatuses(t *testing.T) {
	g := testGraph()
	p := testPattern(g, 3)
	ctx := context.Background()
	d := boot(t, server.Config{}, g)

	_, err := d.c.Enumerate(ctx, "g", p, client.EnumerateOptions{Algo: "dfs"})
	if statusOf(err) != http.StatusBadRequest {
		t.Errorf("unknown algo: %v, want 400", err)
	}
	if _, err := d.c.Watch(ctx, "g", p, "quantum"); statusOf(err) != http.StatusBadRequest {
		t.Errorf("unknown watch semantics: %v, want 400", err)
	}
	_, err = d.c.Match(ctx, "nope", p)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.StatusCode != http.StatusNotFound || ce.Message == "" {
		t.Errorf("unknown graph: %v, want a 404 with a message", err)
	}

	slow := boot(t, server.Config{DefaultTimeout: time.Nanosecond}, g)
	if _, err := slow.c.Simulate(ctx, "g", p); statusOf(err) != http.StatusGatewayTimeout {
		t.Errorf("expired deadline: %v, want 504", err)
	}
}
