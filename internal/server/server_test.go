package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/server"
)

// testGraph builds the deterministic data graph the suite serves: large
// enough that every semantics does real work, small enough to keep the
// matrix oracle instant.
func testGraph() *gpm.Graph {
	return gpm.GenerateGraph(gpm.GraphGenConfig{
		Nodes: 300, Edges: 900, Attrs: 12, Model: gpm.ModelER, Seed: 7,
	})
}

// testPattern is an all-bounds-one pattern (valid for every semantics).
func testPattern(g *gpm.Graph, seed int64) *gpm.Pattern {
	return gpm.GeneratePattern(gpm.PatternGenConfig{
		Nodes: 3, Edges: 3, K: 1, C: 0, PredAttrs: 1, Seed: seed,
	}, g)
}

// boot starts a server over one bound graph and returns it with a typed
// client and a parallel in-process engine over a clone of the same
// graph — the byte-identity reference.
func boot(t *testing.T, cfg server.Config) (*server.Server, *client.Client, *gpm.Engine) {
	t.Helper()
	g := testGraph()
	ref := gpm.NewEngine(g.Clone())
	srv := server.New(cfg)
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, client.New(ts.URL, client.WithHTTPClient(ts.Client())), ref
}

// encodeWire encodes exactly like the server's response writer, so
// expected documents can be byte-compared against raw bodies.
func encodeWire(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postRaw sends one JSON body and returns status and raw response body.
func postRaw(t *testing.T, hc *http.Client, url, path, body string) (int, []byte) {
	t.Helper()
	resp, err := hc.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// patternText serialises a pattern the way the client does.
func patternText(t *testing.T, p *gpm.Pattern) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gpm.WritePattern(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestByteIdenticalToEngine asserts the acceptance criterion: for every
// relation-valued semantics the HTTP response is byte-identical to the
// document built from the in-process Engine call on the same graph. The
// stats block carries wall-clock readings, so the expected document
// grafts the response's stats values in — every other byte, including
// the stats block's position and field order, is pinned.
func TestByteIdenticalToEngine(t *testing.T) {
	g := testGraph()
	ref := gpm.NewEngine(g.Clone())
	srv := server.New(server.Config{})
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	ctx := context.Background()

	for seed := int64(1); seed <= 3; seed++ {
		p := testPattern(g, seed)
		text := patternText(t, p)
		for _, sem := range []string{"match", "sim", "dual", "strong"} {
			t.Run(fmt.Sprintf("%s/seed%d", sem, seed), func(t *testing.T) {
				body := encodeWire(t, client.QueryRequest{Graph: "g", Pattern: text})
				path := map[string]string{"match": "/match", "sim": "/simulate", "dual": "/dual", "strong": "/strong"}[sem]
				status, raw := postRaw(t, ts.Client(), ts.URL, path, string(body))
				if status != http.StatusOK {
					t.Fatalf("status %d: %s", status, raw)
				}
				var got client.Relation
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatal(err)
				}

				var want client.Relation
				switch sem {
				case "match":
					res, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
					if err != nil {
						t.Fatal(err)
					}
					want = client.Relation{Graph: "g", Semantics: sem, OK: res.OK, Pairs: res.Pairs(), Matches: res.Relation}
				case "sim":
					res, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: p})
					if err != nil {
						t.Fatal(err)
					}
					pairs := 0
					for _, row := range res.Relation {
						pairs += len(row)
					}
					want = client.Relation{Graph: "g", Semantics: sem, OK: res.OK, Pairs: pairs, Matches: res.Relation}
				case "dual":
					res, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelDual, Pattern: p})
					if err != nil {
						t.Fatal(err)
					}
					want = client.Relation{Graph: "g", Semantics: sem, OK: res.OK, Pairs: res.Pairs(), Matches: res.Relation}
				case "strong":
					res, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelStrong, Pattern: p})
					if err != nil {
						t.Fatal(err)
					}
					want = client.Relation{Graph: "g", Semantics: sem, OK: res.OK, Pairs: res.Pairs(), Matches: res.Relation}
				}
				want.Stats = got.Stats // wall-clock readings are the one nondeterministic block
				if want.Stats.Oracle == "" {
					t.Fatal("response carries no stats")
				}
				if !bytes.Equal(raw, encodeWire(t, want)) {
					t.Errorf("response not byte-identical to engine document\ngot:  %s\nwant: %s", raw, encodeWire(t, want))
				}
			})
		}
	}
}

// TestEnumerateAndBatchMatchEngine covers the remaining two query
// endpoints against their in-process counterparts.
func TestEnumerateAndBatchMatchEngine(t *testing.T) {
	_, c, ref := boot(t, server.Config{})
	ctx := context.Background()
	g := ref.Graph()

	p := testPattern(g, 2)
	enum, err := c.Enumerate(ctx, "g", p, client.EnumerateOptions{MaxEmbeddings: 50})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Enumerate(ctx, p, gpm.IsoOptions{MaxEmbeddings: 50})
	if err != nil {
		t.Fatal(err)
	}
	if enum.Complete != want.Complete || enum.Steps != want.Steps || len(enum.Embeddings) != len(want.Embeddings) {
		t.Fatalf("enumerate diverged: got %d emb steps=%d complete=%v, want %d emb steps=%d complete=%v",
			len(enum.Embeddings), enum.Steps, enum.Complete, len(want.Embeddings), want.Steps, want.Complete)
	}
	for i := range enum.Embeddings {
		for j := range enum.Embeddings[i] {
			if enum.Embeddings[i][j] != want.Embeddings[i][j] {
				t.Fatalf("embedding %d diverges", i)
			}
		}
	}

	// /count against the in-process engine, planned and unplanned; the
	// planned count must also agree with the enumeration length.
	for _, noPlan := range []bool{false, true} {
		cnt, err := c.Count(ctx, "g", p, client.EnumerateOptions{NoPlan: noPlan})
		if err != nil {
			t.Fatal(err)
		}
		wantCnt, err := ref.CountEmbeddings(ctx, p, gpm.IsoOptions{NoPlan: noPlan})
		if err != nil {
			t.Fatal(err)
		}
		if cnt.Count != wantCnt.Count || cnt.Complete != wantCnt.Complete ||
			cnt.Steps != wantCnt.Steps || cnt.Automorphisms != wantCnt.Automorphisms {
			t.Fatalf("count (noplan=%v) diverged: got %+v, want %+v", noPlan, cnt, wantCnt)
		}
		full, err := ref.Enumerate(ctx, p, gpm.IsoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Complete && cnt.Count != int64(len(full.Embeddings)) {
			t.Fatalf("count (noplan=%v) %d != %d enumerated embeddings", noPlan, cnt.Count, len(full.Embeddings))
		}
	}

	ps := []*gpm.Pattern{testPattern(g, 1), testPattern(g, 2), testPattern(g, 3)}
	results, err := c.MatchBatch(ctx, "g", ps)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := ref.MatchBatch(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(wantBatch) {
		t.Fatalf("batch size %d, want %d", len(results), len(wantBatch))
	}
	for i, res := range results {
		if res.OK != wantBatch[i].OK || res.Pairs != wantBatch[i].Pairs() {
			t.Errorf("batch[%d]: ok=%v pairs=%d, want ok=%v pairs=%d",
				i, res.OK, res.Pairs, wantBatch[i].OK, wantBatch[i].Pairs())
		}
	}
}

// TestWatchSessions drives the full session lifecycle over the wire for
// every watch semantics, asserting the streamed deltas and maintained
// relations agree with in-process watchers fed the same updates.
func TestWatchSessions(t *testing.T) {
	_, c, ref := boot(t, server.Config{})
	ctx := context.Background()
	g := ref.Graph()
	p := testPattern(g, 4)

	refWatchers := map[string]*gpm.Watcher{}
	ids := map[string]int64{}
	for _, sem := range []string{"match", "sim", "dual", "strong"} {
		var w *gpm.Watcher
		var err error
		switch sem {
		case "match":
			w, err = ref.Watch(p)
		case "sim":
			w, err = ref.WatchSim(p)
		case "dual":
			w, err = ref.WatchDual(p)
		case "strong":
			w, err = ref.WatchStrong(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		refWatchers[sem] = w

		st, err := c.Watch(ctx, "g", p, sem)
		if err != nil {
			t.Fatalf("watch %s: %v", sem, err)
		}
		if st.OK != w.OK() || st.Pairs != w.Pairs() {
			t.Fatalf("watch %s initial state ok=%v pairs=%d, want ok=%v pairs=%d",
				sem, st.OK, st.Pairs, w.OK(), w.Pairs())
		}
		ids[sem] = st.ID
	}

	// Three rounds of updates; each cascades all four sessions.
	for round := int64(0); round < 3; round++ {
		ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{Insertions: 4, Deletions: 4, Seed: 100 + round}, g)
		header, deltas, err := c.Update(ctx, "g", ups)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if header.Applied != len(ups) || header.Watchers != 4 {
			t.Fatalf("round %d header: %+v", round, header)
		}
		if len(deltas) != 4 {
			t.Fatalf("round %d: %d deltas, want 4", round, len(deltas))
		}
		if _, err := ref.Update(ups...); err != nil {
			t.Fatalf("round %d ref update: %v", round, err)
		}
		for _, d := range deltas {
			w := refWatchers[d.Semantics]
			if d.OK != w.OK() || d.Pairs != w.Pairs() {
				t.Errorf("round %d %s delta ok=%v pairs=%d, want ok=%v pairs=%d",
					round, d.Semantics, d.OK, d.Pairs, w.OK(), w.Pairs())
			}
		}
		// Snapshots agree with the in-process relation.
		for sem, id := range ids {
			st, err := c.WatchSnapshot(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			wantRel := refWatchers[sem].Relation()
			if len(st.Matches) != len(wantRel) {
				t.Fatalf("%s snapshot rows %d, want %d", sem, len(st.Matches), len(wantRel))
			}
			for u := range wantRel {
				if len(st.Matches[u]) != len(wantRel[u]) {
					t.Errorf("round %d %s snapshot row %d: %d nodes, want %d",
						round, sem, u, len(st.Matches[u]), len(wantRel[u]))
				}
			}
		}
	}

	// Close one session: later updates no longer deliver its deltas.
	if err := c.CloseWatch(ctx, ids["dual"]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WatchSnapshot(ctx, ids["dual"]); err == nil {
		t.Error("snapshot of closed session succeeded")
	}
	ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{Insertions: 2, Deletions: 2, Seed: 999}, g)
	header, deltas, err := c.Update(ctx, "g", ups)
	if err != nil {
		t.Fatal(err)
	}
	if header.Watchers != 3 || len(deltas) != 3 {
		t.Fatalf("after close: header %+v, %d deltas", header, len(deltas))
	}
	for _, d := range deltas {
		if d.WatchID == ids["dual"] {
			t.Error("closed session still streamed a delta")
		}
	}
}

// TestDeadlinePartialEnumeration pins the partial-enumeration contract
// over the wire: a 1ms deadline on a search with far more embeddings
// than that budget returns 200 with the embeddings found so far,
// Complete == false and Truncated set.
func TestDeadlinePartialEnumeration(t *testing.T) {
	// A dense same-label graph: a 3-node wildcard-ish pattern admits a
	// combinatorial number of embeddings, so the search cannot finish
	// inside the deadline.
	g := gpm.GenerateGraph(gpm.GraphGenConfig{Nodes: 1200, Edges: 14000, Attrs: 1, Model: gpm.ModelER, Seed: 3})
	srv := server.New(server.Config{})
	if err := srv.Bind("dense", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))

	p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 1, C: 0, PredAttrs: 1, IsoBias: true, Seed: 5}, g)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	enum, err := c.Enumerate(ctx, "dense", p, client.EnumerateOptions{MaxEmbeddings: 1 << 30})
	if err != nil {
		// The client context itself may win the race to the deadline;
		// retry with a server-side-only deadline to pin the contract.
		var buf bytes.Buffer
		if werr := gpm.WritePattern(&buf, p); werr != nil {
			t.Fatal(werr)
		}
		body := encodeWire(t, client.QueryRequest{Graph: "dense", Pattern: buf.String(), TimeoutMS: 1, MaxEmbeddings: 1 << 30})
		status, raw := postRaw(t, ts.Client(), ts.URL, "/enumerate", string(body))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		var resp client.Enumeration
		if jerr := json.Unmarshal(raw, &resp); jerr != nil {
			t.Fatal(jerr)
		}
		enum = &resp
	}
	if enum.Complete {
		t.Fatal("enumeration completed inside a 1ms deadline; grow the fixture")
	}
	if enum.Truncated == "" {
		t.Error("truncated enumeration carries no context error")
	}

	// The same partial contract holds for /count: a server-side deadline
	// mid-count returns 200 with the partial count and Truncated set.
	var buf bytes.Buffer
	if err := gpm.WritePattern(&buf, p); err != nil {
		t.Fatal(err)
	}
	body := encodeWire(t, client.QueryRequest{Graph: "dense", Pattern: buf.String(), TimeoutMS: 1})
	status, raw := postRaw(t, ts.Client(), ts.URL, "/count", string(body))
	if status != http.StatusOK {
		t.Fatalf("/count under deadline: status %d: %s", status, raw)
	}
	var cnt client.Count
	if err := json.Unmarshal(raw, &cnt); err != nil {
		t.Fatal(err)
	}
	if cnt.Complete {
		t.Fatal("count completed inside a 1ms deadline; grow the fixture")
	}
	if cnt.Truncated == "" {
		t.Error("truncated count carries no context error")
	}
}

// TestDeadlineExceededIsGatewayTimeout pins the non-enumeration
// deadline contract: relation queries cannot return partial fixpoints,
// so an expired deadline is a 504 with a JSON error body.
func TestDeadlineExceededIsGatewayTimeout(t *testing.T) {
	// A server whose default deadline is 1ns: every query's first
	// cancellation poll fires.
	g := testGraph()
	srv := server.New(server.Config{DefaultTimeout: time.Nanosecond})
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	p := testPattern(g, 1)
	var buf bytes.Buffer
	if err := gpm.WritePattern(&buf, p); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/match", "/simulate", "/dual", "/strong", "/batch"} {
		var body []byte
		if path == "/batch" {
			body = encodeWire(t, client.BatchRequest{Graph: "g", Patterns: []string{buf.String()}})
		} else {
			body = encodeWire(t, client.QueryRequest{Graph: "g", Pattern: buf.String()})
		}
		status, raw := postRaw(t, ts.Client(), ts.URL, path, string(body))
		if status != http.StatusGatewayTimeout {
			t.Errorf("%s under expired deadline: status %d (%s), want 504", path, status, raw)
		}
		var er client.ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: 504 body is not a JSON error: %s", path, raw)
		}
	}
}

// TestBadRequests sweeps the 4xx surface: malformed JSON, unknown
// fields, unknown graphs, unparseable and empty patterns, unknown
// semantics/algo/ops, bad watch ids — none may crash the daemon.
func TestBadRequests(t *testing.T) {
	g := testGraph()
	srv := server.New(server.Config{})
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed json", "/match", `{"graph": "g",`, http.StatusBadRequest},
		{"trailing data", "/match", `{"graph":"g","pattern":"x"} {}`, http.StatusBadRequest},
		{"unknown field", "/match", `{"graph":"g","pattern":"x","bogus":1}`, http.StatusBadRequest},
		{"unknown graph", "/match", `{"graph":"nope","pattern":"pattern 1\nnode 0 label = L0\n"}`, http.StatusNotFound},
		{"missing graph", "/match", `{"pattern":"pattern 1\nnode 0 label = L0\n"}`, http.StatusBadRequest},
		{"missing pattern", "/match", `{"graph":"g"}`, http.StatusBadRequest},
		{"bad pattern text", "/simulate", `{"graph":"g","pattern":"nonsense 3\n"}`, http.StatusBadRequest},
		{"empty pattern", "/dual", `{"graph":"g","pattern":"# empty\n"}`, http.StatusBadRequest},
		{"zero-node pattern", "/strong", `{"graph":"g","pattern":"pattern 0\n"}`, http.StatusBadRequest},
		{"unknown algo", "/enumerate", `{"graph":"g","pattern":"pattern 1\nnode 0 label = L0\n","algo":"dfs"}`, http.StatusBadRequest},
		{"count unknown algo", "/count", `{"graph":"g","pattern":"pattern 1\nnode 0 label = L0\n","algo":"dfs"}`, http.StatusBadRequest},
		{"count unknown graph", "/count", `{"graph":"nope","pattern":"pattern 1\nnode 0 label = L0\n"}`, http.StatusNotFound},
		{"count bad pattern", "/count", `{"graph":"g","pattern":"nonsense 3\n"}`, http.StatusBadRequest},
		{"empty batch", "/batch", `{"graph":"g","patterns":[]}`, http.StatusBadRequest},
		{"unknown watch semantics", "/watch", `{"graph":"g","pattern":"pattern 1\nnode 0 label = L0\n","semantics":"quantum"}`, http.StatusBadRequest},
		{"unknown update op", "/update", `{"graph":"g","updates":[{"op":"?","u":0,"v":1}]}`, http.StatusBadRequest},
		{"out-of-range update", "/update", `{"graph":"g","updates":[{"op":"+","u":100000,"v":1}]}`, http.StatusBadRequest},
		{"negative timeout match", "/match", `{"graph":"g","pattern":"pattern 1\nnode 0 label = L0\n","timeout_ms":-5}`, http.StatusBadRequest},
		{"negative timeout enumerate", "/enumerate", `{"graph":"g","pattern":"pattern 1\nnode 0 label = L0\n","timeout_ms":-1}`, http.StatusBadRequest},
		{"negative timeout count", "/count", `{"graph":"g","pattern":"pattern 1\nnode 0 label = L0\n","timeout_ms":-1}`, http.StatusBadRequest},
		{"negative timeout batch", "/batch", `{"graph":"g","patterns":["pattern 1\nnode 0 label = L0\n"],"timeout_ms":-1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postRaw(t, ts.Client(), ts.URL, tc.path, tc.body)
			if status != tc.want {
				t.Errorf("status %d (%s), want %d", status, raw, tc.want)
			}
			var er client.ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
				t.Errorf("error body is not JSON: %s", raw)
			}
		})
	}

	// Bad watch ids via the typed client.
	ctx := context.Background()
	cl := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	if _, err := cl.WatchSnapshot(ctx, 999); err == nil {
		t.Error("snapshot of unknown watch succeeded")
	}
	if err := cl.CloseWatch(ctx, 999); err == nil {
		t.Error("close of unknown watch succeeded")
	}
	resp, err := ts.Client().Get(ts.URL + "/watch/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /watch/notanumber: %d, want 400", resp.StatusCode)
	}

	// The daemon survived the whole sweep.
	if !cl.Healthy(ctx) {
		t.Fatal("daemon unhealthy after bad-request sweep")
	}
}

// TestNegativeTimeoutErrorBody pins the exact error document of the
// negative-timeout rejection (the satellite bugfix's wire contract): a
// 400 whose message names the field, echoes the value and says what to
// send instead.
func TestNegativeTimeoutErrorBody(t *testing.T) {
	g := testGraph()
	srv := server.New(server.Config{})
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	body := `{"graph":"g","pattern":"pattern 1\nnode 0 label = L0\n","timeout_ms":-5}`
	status, raw := postRaw(t, ts.Client(), ts.URL, "/match", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", status, raw)
	}
	want := encodeWire(t, client.ErrorResponse{
		Error: "timeout_ms must be >= 0 (got -5); omit it or send 0 for the server default",
	})
	if !bytes.Equal(raw, want) {
		t.Errorf("error body:\n got %s want %s", raw, want)
	}
}

// TestWatchOpenValidationStays400 pins the e2e half of the
// classification fix: a watch whose pattern the semantics rejects (sim
// requires every edge bound to be 1) is still the caller's fault — 400,
// not 500 — after the engineError routing change.
func TestWatchOpenValidationStays400(t *testing.T) {
	g := testGraph()
	srv := server.New(server.Config{})
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	// A bound-2 edge: valid for "match", rejected by the sim maintainer.
	bounded := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 2, C: 0, PredAttrs: 1, Seed: 4}, g)
	if text := patternText(t, bounded); !strings.Contains(text, " 2\n") {
		t.Fatalf("fixture lost its bound-2 edges:\n%s", text)
	}
	body := encodeWire(t, client.WatchRequest{Graph: "g", Pattern: patternText(t, bounded), Semantics: "sim"})
	status, raw := postRaw(t, ts.Client(), ts.URL, "/watch", string(body))
	if status != http.StatusBadRequest {
		t.Fatalf("sim watch on bounded pattern: status %d (%s), want 400", status, raw)
	}
	var er client.ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
		t.Fatalf("error body is not JSON: %s", raw)
	}
}

// TestCloseDuringWatchOpen is the shutdown-race regression test (run
// under -race): watch opens racing Close must each either complete
// before the drain (200, session readable afterwards) or be refused
// (503) — never register a session after Close has drained, which the
// old code could do because checkAccepting ran before the watcher
// build. Sessions opened before the drain stay readable by contract.
func TestCloseDuringWatchOpen(t *testing.T) {
	g := testGraph()
	srv := server.New(server.Config{})
	if err := srv.Bind("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()
	p := testPattern(g, 4)

	const openers = 16
	var wg sync.WaitGroup
	type result struct {
		id  int64
		err error
	}
	results := make(chan result, openers)
	for i := 0; i < openers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem := []string{"match", "sim", "dual", "strong"}[i%4]
			st, err := c.Watch(ctx, "g", p, sem)
			if err != nil {
				results <- result{err: err}
				return
			}
			results <- result{id: st.ID}
		}(i)
	}
	// Fire Close into the middle of the open storm.
	srv.Close()
	wg.Wait()
	close(results)

	opened := 0
	var maxID int64
	for r := range results {
		if r.err != nil {
			ce := new(client.Error)
			if !errors.As(r.err, &ce) || ce.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("racing open failed with %v, want 503", r.err)
			}
			continue
		}
		opened++
		if r.id > maxID {
			maxID = r.id
		}
		// Every acknowledged session is readable after Close.
		if _, err := c.WatchSnapshot(ctx, r.id); err != nil {
			t.Errorf("session %d acknowledged but unreadable after Close: %v", r.id, err)
		}
	}
	// Refused opens consume no ids: the highest id is exactly the number
	// of successes, so nothing was registered past the drain.
	if maxID != int64(opened) {
		t.Errorf("max session id %d after %d successful opens; a refused open consumed an id", maxID, opened)
	}
}

// TestGraphsAndStats covers the introspection endpoints.
func TestGraphsAndStats(t *testing.T) {
	_, c, ref := boot(t, server.Config{})
	ctx := context.Background()

	infos, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n, m := ref.Size()
	if len(infos) != 1 || infos[0].Name != "g" || infos[0].Nodes != n || infos[0].Edges != m {
		t.Fatalf("graphs = %+v, want one entry for g with %d/%d", infos, n, m)
	}

	p := testPattern(ref.Graph(), 1)
	if _, err := c.Match(ctx, "g", p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DualSimulate(ctx, "g", p); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, "g", p, client.EnumerateOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// count must have its own bucket — it used to fall through semIndex's
	// default and inflate the match counter.
	if st.Queries["match"] != 1 || st.Queries["dual"] != 1 || st.Queries["count"] != 1 {
		t.Errorf("stats queries = %+v, want match=1 dual=1 count=1", st.Queries)
	}
	if st.MatchTimeNS <= 0 {
		t.Error("stats match time not accumulated")
	}
	if st.InitialPairs <= 0 {
		t.Error("stats initial pairs not accumulated")
	}
}

// TestPLLOracleBinding pins what is left of the PLL oracle on the wire:
// nothing. A graph bound with WithOracle(OraclePLL) reports "none" in
// its info document, serves stats stamped "none" with no build time and
// no probe, and returns the same relation as a default engine.
func TestPLLOracleBinding(t *testing.T) {
	g := testGraph()
	ref := gpm.NewEngine(g.Clone())
	srv := server.New(server.Config{})
	if err := srv.Bind("g", g, gpm.WithOracle(gpm.OraclePLL)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	infos, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Oracle != "none" {
		t.Fatalf("graphs = %+v, want one entry with oracle none", infos)
	}
	p := testPattern(ref.Graph(), 3)
	got, err := c.Match(ctx, "g", p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Oracle != "none" || got.Stats.OracleBuildNS != 0 || got.Stats.OracleQueries != 0 {
		t.Errorf("match stats = %+v, want no oracle, no build and no probe", got.Stats)
	}
	want, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	if got.OK != want.OK || len(got.Matches) != len(want.Relation) {
		t.Fatalf("pll relation shape differs from the reference")
	}
	for u, row := range want.Relation {
		if len(got.Matches[u]) != len(row) {
			t.Fatalf("node %d: pll relation differs from the reference", u)
		}
		for i := range row {
			if got.Matches[u][i] != row[i] {
				t.Fatalf("node %d: pll relation differs from the reference", u)
			}
		}
	}
}

// TestConcurrentQueriesAndUpdates exercises the locking discipline
// under -race: parallel queries across semantics ride the engine's read
// side while update batches and session churn take the write side.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	_, c, ref := boot(t, server.Config{})
	ctx := context.Background()
	g := ref.Graph()

	const queriers = 4
	const rounds = 8
	var wg sync.WaitGroup
	errCh := make(chan error, queriers+2)

	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			p := testPattern(g, int64(q+1))
			for r := 0; r < rounds; r++ {
				var err error
				switch r % 4 {
				case 0:
					_, err = c.Match(ctx, "g", p)
				case 1:
					_, err = c.Simulate(ctx, "g", p)
				case 2:
					_, err = c.DualSimulate(ctx, "g", p)
				case 3:
					_, err = c.StrongSimulate(ctx, "g", p)
				}
				if err != nil {
					errCh <- fmt.Errorf("querier %d round %d: %v", q, r, err)
					return
				}
			}
		}(q)
	}

	// One updater applying small batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := int64(0); r < rounds; r++ {
			ups := []gpm.Update{gpm.InsertEdge(int(r), int(r+1))}
			if _, _, err := c.Update(ctx, "g", ups); err != nil {
				errCh <- fmt.Errorf("updater round %d: %v", r, err)
				return
			}
			ups = []gpm.Update{gpm.DeleteEdge(int(r), int(r+1))}
			if _, _, err := c.Update(ctx, "g", ups); err != nil {
				errCh <- fmt.Errorf("updater round %d undo: %v", r, err)
				return
			}
		}
	}()

	// One session churner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := testPattern(g, 9)
		for r := 0; r < rounds; r++ {
			st, err := c.Watch(ctx, "g", p, "dual")
			if err != nil {
				errCh <- fmt.Errorf("churner round %d: %v", r, err)
				return
			}
			if _, err := c.WatchSnapshot(ctx, st.ID); err != nil {
				errCh <- fmt.Errorf("churner snapshot %d: %v", r, err)
				return
			}
			if err := c.CloseWatch(ctx, st.ID); err != nil {
				errCh <- fmt.Errorf("churner close %d: %v", r, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Undone inserts cancel out: the graph is structurally unchanged, so
	// a final query must agree with the untouched reference engine.
	p := testPattern(g, 1)
	rel, err := c.Match(ctx, "g", p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	if rel.OK != want.OK || rel.Pairs != want.Pairs() {
		t.Errorf("after concurrent churn: ok=%v pairs=%d, want ok=%v pairs=%d",
			rel.OK, rel.Pairs, want.OK, want.Pairs())
	}
}

// TestGracefulShutdownDrainsFixpoints pins the Close contract: an
// in-flight enumeration observes the base-context cancellation and
// unwinds with its partial result instead of running out its budget.
func TestGracefulShutdownDrainsFixpoints(t *testing.T) {
	g := gpm.GenerateGraph(gpm.GraphGenConfig{Nodes: 1200, Edges: 14000, Attrs: 1, Model: gpm.ModelER, Seed: 3})
	srv := server.New(server.Config{})
	if err := srv.Bind("dense", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))

	p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 1, C: 0, PredAttrs: 1, IsoBias: true, Seed: 5}, g)
	done := make(chan *client.Enumeration, 1)
	errs := make(chan error, 1)
	go func() {
		enum, err := c.Enumerate(context.Background(), "dense", p, client.EnumerateOptions{MaxEmbeddings: 1 << 30})
		if err != nil {
			errs <- err
			return
		}
		done <- enum
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	srv.Close()
	select {
	case enum := <-done:
		if enum.Complete {
			t.Error("enumeration claims completeness after shutdown cancellation")
		}
		if enum.Truncated == "" {
			t.Error("cancelled enumeration carries no context error")
		}
	case err := <-errs:
		t.Fatalf("enumeration failed instead of returning its partial result: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("enumeration did not drain after Close")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain took %v", elapsed)
	}

	// After Close the daemon refuses new write-side work (watch opens
	// and update batches start uncancellable engine fixpoints, so the
	// shutdown guarantee is "none started after Close").
	if _, err := c.Watch(context.Background(), "dense", p, "sim"); err == nil {
		t.Error("watch open accepted after Close")
	} else if ce := new(client.Error); !errors.As(err, &ce) || ce.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("watch open after Close: %v, want 503", err)
	}
	if _, _, err := c.Update(context.Background(), "dense", []gpm.Update{gpm.InsertEdge(0, 1)}); err == nil {
		t.Error("update accepted after Close")
	} else if ce := new(client.Error); !errors.As(err, &ce) || ce.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("update after Close: %v, want 503", err)
	}
}
