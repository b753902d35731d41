package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpm/client"
	"gpm/internal/server"
)

// TestInputsRepeat: the same seed gives byte-identical inputs, another
// seed gives other inputs.
func TestInputsRepeat(t *testing.T) {
	for _, w := range workloads {
		a, _, err := prepare(w.smoke, 7, 1, w.wal)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _, err := prepare(w.smoke, 7, 1, w.wal)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		fa, fb := a.files(), b.files()
		for name := range fa {
			if !bytes.Equal(fa[name], fb[name]) {
				t.Errorf("%s: %s differs between two generations from seed 7", w.name, name)
			}
		}
		if a.sha256 != b.sha256 || a.sha256 == "" {
			t.Errorf("%s: inputs_sha256 %q and %q from the same seed", w.name, a.sha256, b.sha256)
		}
		c, _, err := prepare(w.smoke, 8, 1, w.wal)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if c.sha256 == a.sha256 {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", w.name)
		}
	}
}

// TestColdRelationPatternsDistinct: with the cache off it would not
// matter, but the workload's claim is that no two requests of a round
// share a canonical form under the same semantics.
func TestColdRelationPatternsDistinct(t *testing.T) {
	sp := workloadByName("cold-relation").smoke
	sp.relBase = [4]int{40, 20, 20, 20}
	in, err := genInputs(sp, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, q := range in.refQuery {
		c, err := mustPattern(q.text).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if key := q.kind + "\n" + c.Text; seen[key] {
			t.Errorf("two %s ops share the canonical form\n%s", q.kind, c.Text)
		} else {
			seen[key] = true
		}
	}
	if len(in.ops) != 100 || len(in.refQuery) != 100 {
		t.Errorf("%d ops over %d distinct queries, want 100 of each", len(in.ops), len(in.refQuery))
	}
}

// post sends one relation request straight through a handler.
func post(t *testing.T, h http.Handler, path string, body []byte) client.Relation {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if rw.Code != 200 {
		t.Fatalf("%s: HTTP %d: %s", path, rw.Code, rw.Body.String())
	}
	var rel client.Relation
	if err := json.Unmarshal(rw.Body.Bytes(), &rel); err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestVariantsTakeTheirCachePath: against a cache-enabled server, an
// item's original text is computed cold, its respelling misses the memo
// but hits the exact digest, its refinement is seeded from the original
// (strong simulation has no containment path and computes cold), and
// every fresh refinement hot-zipf generates is contained as well. All
// answers equal the reference.
func TestVariantsTakeTheirCachePath(t *testing.T) {
	w := workloadByName("hot-zipf")
	in, rf, err := prepare(w.smoke, 5, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{CacheBytes: 64 << 20})
	if err := srv.Bind(graphName, in.g.Clone()); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for item, it := range in.rel {
		if it.text[vOriginal] == it.text[vRespelled] {
			t.Fatalf("item %d: respelling equals the original text", item)
		}
		co, _ := mustPattern(it.text[vOriginal]).Canonical()
		cr, _ := mustPattern(it.text[vRespelled]).Canonical()
		if co.Digest != cr.Digest {
			t.Fatalf("item %d: respelling has another canonical digest", item)
		}
		want := map[int]string{vOriginal: "", vRespelled: "hit", vRefined: "containment"}
		if it.sem == "strong" {
			want[vRefined] = ""
		}
		for _, v := range []int{vOriginal, vRespelled, vRefined, vRefined} {
			rel := post(t, srv, semPath[it.sem], queryBody(it.text[v], 0))
			if rel.Stats.Cache != want[v] {
				t.Errorf("item %d (%s) variant %d took cache path %q, want %q", item, it.sem, v, rel.Stats.Cache, want[v])
			}
			if v == vRefined {
				want[vRefined] = "hit" // the second time round
			}
		}
	}
	// The generated op list: originals are warm by now, so fresh
	// respellings hit and fresh refinements are seeded.
	paths := map[string]int{}
	for _, i := range in.order {
		o := &in.ops[i]
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest("POST", o.path, bytes.NewReader(o.body)))
		marker, err := rf.check(o, rw.Body.Bytes(), []int{0})
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if int(i) >= len(in.rel) {
			paths[marker]++
		}
	}
	if paths[""] > 0 || paths["containment"] == 0 || paths["hit"] == 0 {
		t.Errorf("fresh texts took cache paths %v, want containment and hit only", paths)
	}
}

// TestGateTripsOnCorruptedRow: a server that answers one request with a
// row one node short is caught by the reference check, and the run is
// reported incorrect.
func TestGateTripsOnCorruptedRow(t *testing.T) {
	w := workloadByName("cold-relation")
	sp := w.smoke
	sp.nodes = 300
	in, rf, err := prepare(sp, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Bind(graphName, in.g.Clone()); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var corrupted atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		var rel client.Relation
		if json.Unmarshal(body, &rel) == nil && !corrupted.Load() {
			for u, row := range rel.Matches {
				if len(row) > 0 {
					rel.Matches[u] = row[:len(row)-1]
					rel.Pairs-- // keep the header consistent: only the checksum can tell
					body, _ = json.Marshal(rel)
					corrupted.Store(true)
					break
				}
			}
		}
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	}))
	defer stub.Close()
	r := &run{w: w, in: in, rf: rf, ctx: context.Background(), hc: newHTTPClient(2)}
	l := r.target(&daemon{base: stub.URL}).closedLoop(r.ctx, 2, 300*time.Millisecond)
	n, first := l.failed()
	if !corrupted.Load() {
		t.Fatal("the stub never corrupted a response")
	}
	if n != 1 || !strings.Contains(first, "checksum") {
		t.Fatalf("%d failures (%q) of %d requests, want exactly the corrupted one", n, first, len(l.samples))
	}
}

// TestOpenLoopChargesAStallToQueuedRequests: 1000 requests a second, and
// the server stops for 200 ms once. An honest open loop charges that
// stall to every request that fell due during it (some 200 of them, with
// latencies spread between 0 and 200 ms); a generator that waited for
// replies before sending on would show it on two requests only.
func TestOpenLoopChargesAStallToQueuedRequests(t *testing.T) {
	var gate sync.Mutex
	var served atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if served.Add(1) == 300 {
			gate.Lock()
			time.Sleep(200 * time.Millisecond)
			gate.Unlock()
		}
		gate.Lock() // everybody waits out the stall
		gate.Unlock()
		rw.Write([]byte("{}"))
	}))
	defer stub.Close()
	var arrivals []time.Duration
	for i := 0; i < 1000; i++ {
		arrivals = append(arrivals, time.Duration(i)*time.Millisecond)
	}
	tg := &target{
		hc: newHTTPClient(2), base: stub.URL,
		ops: []op{{kind: "match", path: "/match", body: []byte("{}")}}, order: []int32{0},
		check: func(*op, []byte, int64) (string, error) { return "", nil },
	}
	l := tg.openLoop(context.Background(), 2, arrivals)
	if len(l.samples) != len(arrivals) {
		t.Fatalf("%d of %d requests sent", len(l.samples), len(arrivals))
	}
	var over100, over20, late50 int
	for _, s := range l.samples {
		if s.lat >= 100*time.Millisecond {
			over100++
		}
		if s.lat >= 20*time.Millisecond {
			over20++
		}
		if s.late >= 50*time.Millisecond {
			late50++
		}
	}
	// Due times 300..400 ms wait >= 100 ms for the stall to end at ~500 ms.
	if over100 < 70 || over20 < 140 {
		t.Errorf("%d requests saw >= 100 ms and %d saw >= 20 ms; a 200 ms stall at 1000 req/s should touch about 100 and 180", over100, over20)
	}
	if late50 < 100 {
		t.Errorf("%d requests left the generator >= 50 ms late, want about 150: lateness is not being recorded", late50)
	}
	if p := percentile(l.lateness(), 99); p < 50 {
		t.Errorf("late p99 = %.1f ms, want it to show the stall", p)
	}
	// The reported metrics are taken over every sample of every stretch the
	// hypervisor left alone, and a server's stall steals nothing: one stall
	// in one of the run's seconds moves latency_p99_ms, and the same
	// schedule against the same server without the stall stays far below it.
	stalled, n := l.clean(nil).timedMetrics()
	if p99 := stalled["latency_p99_ms"].Value; n != len(arrivals) || p99 < 150 {
		t.Errorf("latency_p99_ms = %.1f ms over %d samples; the 200 ms stall delayed a fifth of the requests and must show", p99, n)
	}
	served.Store(300) // the stall is behind us
	quiet, _ := tg.openLoop(context.Background(), 2, arrivals).timedMetrics()
	if p99 := quiet["latency_p99_ms"].Value; p99 > 50 {
		t.Errorf("latency_p99_ms = %.1f ms without a stall", p99)
	}
}

// TestCleanSelectsOnStealNotLatency: the only samples a run leaves out
// are those that began while the kernel reported stolen time, fast or
// slow, and a slow sample of a clean stretch stays in.
func TestCleanSelectsOnStealNotLatency(t *testing.T) {
	t0 := time.Now()
	l := load{began: t0, elapsed: 4 * time.Second}
	for i := 0; i < 4000; i++ { // one request a millisecond, 1 ms each
		s := sample{at: time.Duration(i+1) * time.Millisecond, lat: time.Millisecond}
		if i == 500 || i == 1500 { // two 300 ms stalls, one per stretch
			s.lat = 300 * time.Millisecond
			s.at += s.lat - time.Millisecond
		}
		l.samples = append(l.samples, s)
	}
	dirty := []stretch{{t0.Add(time.Second), t0.Add(2 * time.Second)}}
	kept := l.clean(dirty)
	if len(kept.samples) != 3000 || kept.elapsed != 3*time.Second {
		t.Fatalf("%d samples over %v kept, want the 3000 that began outside the stolen second, over 3 s", len(kept.samples), kept.elapsed)
	}
	var slow int
	for _, s := range kept.samples {
		if began := s.at - s.lat; began >= time.Second && began < 2*time.Second {
			t.Fatalf("a sample that began %v into the phase was kept", began)
		}
		if s.lat > 100*time.Millisecond {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d stalled samples kept, want the one of the clean stretch", slow)
	}
	if whole := l.clean([]stretch{{t0, t0.Add(3500 * time.Millisecond)}}); len(whole.samples) != len(l.samples) {
		t.Errorf("with %d clean samples left, fewer than %d, the phase should be reported whole", len(whole.samples), minClean)
	}
	// The watch itself: starts, reads, stops.
	w := watchSteal()
	time.Sleep(2 * stealEvery)
	if _, share := w.stop(); len(w.at) < 3 || share < 0 || share > 1 {
		t.Errorf("%d readings, stolen share %v", len(w.at), share)
	}
}

// TestOpenLoopGivesUpOnAGrowingBacklog: a server that takes 5 ms a
// request is sent 1000 a second over 2 connections; with giveUp set the
// rung ends as soon as a request leaves 50 ms late instead of sending the
// whole schedule into the backlog.
func TestOpenLoopGivesUpOnAGrowingBacklog(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		time.Sleep(5 * time.Millisecond)
		rw.Write([]byte("{}"))
	}))
	defer stub.Close()
	var arrivals []time.Duration
	for i := 0; i < 2000; i++ {
		arrivals = append(arrivals, time.Duration(i)*time.Millisecond)
	}
	tg := &target{
		hc: newHTTPClient(2), base: stub.URL, giveUp: 50 * time.Millisecond,
		ops: []op{{kind: "match", path: "/match", body: []byte("{}")}}, order: []int32{0},
		check: func(*op, []byte, int64) (string, error) { return "", nil },
	}
	l := tg.openLoop(context.Background(), 2, arrivals)
	if len(l.samples) < 10 || len(l.samples) > 400 {
		t.Errorf("%d of %d requests sent; the backlog passes 50 ms after about 100", len(l.samples), len(arrivals))
	}
}

// TestCompare: -compare refuses run sets with different settings, calls
// a metric worse only past its bound, and unresolved when the runs
// scatter more than the bound.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644)
	set := func(name string, nproc string, lat, ops []float64) string {
		s := &runSet{Meta: map[string]string{"seed": "1", "nproc": nproc}}
		for _, w := range workloads {
			for i := range lat {
				s.Runs = append(s.Runs, &report{Workload: w.name, Seed: int64(i), InputsSHA256: "0123456789abcdef", ReferenceChecksum: "c",
					result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
						"latency_p50_ms": {lat[i], "ms"}, "ops_per_s": {ops[i], "1/s"}}}})
			}
		}
		path := filepath.Join(dir, name)
		if err := s.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("a.json", "2", []float64{10, 10.1, 9.9, 10.2, 9.8}, []float64{100, 101, 99, 102, 98})
	same := set("b.json", "2", []float64{10.5, 10.4, 10.6, 10.5, 10.3}, []float64{97, 98, 96, 99, 97})
	slow := set("c.json", "2", []float64{11.5, 11.4, 11.6, 11.5, 11.3}, []float64{100, 101, 99, 102, 98})
	wide := set("d.json", "2", []float64{8, 12, 9, 11.5, 10}, []float64{100, 101, 99, 102, 98})
	other := set("e.json", "4", []float64{10, 10, 10, 10, 10}, []float64{100, 100, 100, 100, 100})

	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, same, bench); err != nil || worse {
		t.Errorf("5%% slower within a 10%% bound: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if strings.Contains(out.String(), "WORSE") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("steady runs within the bound should all read unchanged:\n%s", out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, slow, bench); err != nil || !worse || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("15%% slower past a 10%% bound: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, wide, bench); err != nil || worse || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("same median, scattered runs: worse=%v err=%v, want unresolved rows\n%s", worse, err, out.String())
	}
	// A baseline of zero has no share to take: the row is unresolved, never
	// NaN read as unchanged.
	zero := set("f.json", "2", []float64{0, 0, 0, 0, 0}, []float64{100, 101, 99, 102, 98})
	out.Reset()
	if worse, err := compareFiles(&out, zero, base, bench); err != nil || worse || strings.Contains(out.String(), "NaN") ||
		strings.Count(out.String(), "unresolved") != len(workloads) {
		t.Errorf("zero baseline: worse=%v err=%v, want one unresolved row per workload\n%s", worse, err, out.String())
	}
	if _, err := compareFiles(&out, base, other, bench); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Errorf("run sets from 2 and 4 processors compared: err=%v", err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2})
	if q1 != 1 || q3 != 5 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 5", q1, q3)
	}
}

// TestDeclaredWorkloads: BENCHMARK.json names this program's workloads,
// with the reasons the program carries.
func TestDeclaredWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
}

// TestSmoke builds gpmd and runs every workload end to end and traced at
// tiny sizes: the harness compiles, every answer checks out, and every
// metric BENCHMARK.json declares is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs gpmd")
	}
	e, err := newEnv("..", true)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	set, err := runAll(context.Background(), e, 1, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !set.correct() {
		for _, rep := range set.Runs {
			if !rep.Correct {
				t.Errorf("%s (trace %v): %d of %d failed: %s", rep.Workload, rep.Trace, rep.Failed, rep.Attempted, rep.FirstFailure)
			}
		}
	}
	if len(set.Runs) != 2*len(workloads) {
		t.Errorf("%d runs, want an end-to-end and a traced one per workload", len(set.Runs))
	}
	// About 11 s on a quiet 2-vCPU host, several times that under -race.
	t.Logf("smoke took %v", time.Since(start))
}
