package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gpm"
	"gpm/client"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	goldenPath := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

// TestGoldenUsage pins the flag surface: -h prints the usage text.
func TestGoldenUsage(t *testing.T) {
	var stderr bytes.Buffer
	_, err := parseFlags([]string{"-h"}, &stderr)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	checkGolden(t, "usage.golden", stderr.Bytes())
}

// TestGoldenStartup pins the startup log lines for file and dataset
// bindings (sizes are deterministic: the file fixture and a seeded
// stand-in).
func TestGoldenStartup(t *testing.T) {
	opts, err := parseFlags([]string{
		"-graph", "tiny=" + filepath.Join("testdata", "tiny.graph"),
		"-dataset", "m=matter:0.01:3",
		"-v",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	srv, _, err := buildServer(opts, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.GraphNames(); len(got) != 2 || got[0] != "m" || got[1] != "tiny" {
		t.Fatalf("graph names = %v", got)
	}
	// The path separator is the only platform-dependent byte.
	out := strings.ReplaceAll(log.String(), string(filepath.Separator), "/")
	checkGolden(t, "startup.golden", []byte(out))
}

// TestFlagErrors sweeps the rejection surface of the command line.
func TestFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string // expected error fragment
	}{
		{"no graphs", nil, "no graphs bound"},
		{"positional args", []string{"-graph", "t=testdata/tiny.graph", "serve"}, "unexpected arguments"},
		{"bad graph spec", []string{"-graph", "justapath.graph"}, "want name=path"},
		{"empty graph name", []string{"-graph", "=p.graph"}, "want name=path"},
		{"missing graph file", []string{"-graph", "t=testdata/nope.graph"}, "no such file"},
		{"bad oracle", []string{"-graph", "t=testdata/tiny.graph", "-oracle", "psychic"}, "unknown oracle"},
		{"bad dataset name", []string{"-dataset", "d=imdb"}, "unknown dataset"},
		{"bad dataset scale", []string{"-dataset", "d=matter:7"}, "bad scale"},
		{"bad dataset seed", []string{"-dataset", "d=matter:0.01:x"}, "bad seed"},
		{"bad dataset spec", []string{"-dataset", "d=matter:0.01:1:extra"}, "want ds[:scale[:seed]]"},
		{"bad wal sync", []string{"-graph", "t=testdata/tiny.graph", "-wal-sync", "fsync-sometimes"}, "unknown sync policy"},
		{"negative snapshot cadence", []string{"-graph", "t=testdata/tiny.graph", "-snapshot-every", "-1"}, "-snapshot-every must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts, err := parseFlags(tc.args, io.Discard)
			if err == nil {
				_, _, err = buildServer(opts, io.Discard)
			}
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

// TestServeLifecycle boots the daemon on an ephemeral port, drives it
// over the wire with the typed client, and exits through the graceful
// drain path.
func TestServeLifecycle(t *testing.T) {
	var stdout, stderr bytes.Buffer
	errCh := make(chan error, 1)
	probed := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-listen", "127.0.0.1:0",
			"-graph", "tiny=" + filepath.Join("testdata", "tiny.graph"),
			"-timeout", "5s",
		}, &stdout, &stderr, func(addr string) {
			probed <- probe(addr)
		})
	}()
	if err := <-probed; err != nil {
		t.Error(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after ready returned")
	}
	out := stdout.String()
	if !strings.Contains(out, "serving tiny on 127.0.0.1:") {
		t.Errorf("stdout lacks serving line: %q", out)
	}
	if !strings.Contains(out, "gpmd: drained") {
		t.Errorf("stdout lacks drain line: %q", out)
	}
	// The bound port is the one dynamic token; scrubbed, the lifecycle
	// output is golden.
	port := regexp.MustCompile(`127\.0\.0\.1:\d+`)
	checkGolden(t, "lifecycle.golden", port.ReplaceAll(stdout.Bytes(), []byte("127.0.0.1:PORT")))
}

// TestDebugListener: -debug-addr serves the pprof index on its own
// listener, and the public listener does not serve it.
func TestDebugListener(t *testing.T) {
	var stdout, stderr bytes.Buffer
	errCh := make(chan error, 1)
	probed := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-listen", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0",
			"-graph", "tiny=" + filepath.Join("testdata", "tiny.graph"),
		}, &stdout, &stderr, func(addr string) {
			probed <- probeDebug(addr, stdout.String())
		})
	}()
	if err := <-probed; err != nil {
		t.Error(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after ready returned")
	}
}

// probeDebug checks both listeners; out is the daemon's stdout so far,
// which names the debug address.
func probeDebug(addr, out string) error {
	m := regexp.MustCompile(`debug endpoints on (\S+)`).FindStringSubmatch(out)
	if m == nil {
		return fmt.Errorf("stdout names no debug listener: %q", out)
	}
	get := func(base string) (int, string, error) {
		resp, err := http.Get("http://" + base + "/debug/pprof/")
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), err
	}
	code, body, err := get(m[1])
	if err != nil {
		return err
	}
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		return fmt.Errorf("debug listener /debug/pprof/: status %d, body %.80q", code, body)
	}
	if code, _, err = get(addr); err != nil {
		return err
	}
	if code == http.StatusOK {
		return errors.New("public listener serves /debug/pprof/")
	}
	return nil
}

// TestWALLifecycle runs the daemon twice against one WAL directory: the
// first run opens a watch and applies an update, the second must recover
// the session under the same id with the updated relation — the full
// durability loop through flags, server and log.
func TestWALLifecycle(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-listen", "127.0.0.1:0",
		"-graph", "tiny=" + filepath.Join("testdata", "tiny.graph"),
		"-timeout", "5s",
		"-wal", dir,
		"-wal-sync", "none",
	}
	var watchID int64
	var pairsAfterUpdate int
	if err := serveAndProbe(args, func(addr string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c := client.New("http://" + addr)
		p, err := gpm.LoadPatternFile(filepath.Join("testdata", "tiny.pattern"))
		if err != nil {
			return err
		}
		st, err := c.Watch(ctx, "tiny", p, "dual")
		if err != nil {
			return err
		}
		watchID = st.ID
		if _, _, err := c.Update(ctx, "tiny", []gpm.Update{gpm.DeleteEdge(0, 1)}); err != nil {
			return err
		}
		after, err := c.WatchSnapshot(ctx, st.ID)
		if err != nil {
			return err
		}
		pairsAfterUpdate = after.Pairs
		return nil
	}); err != nil {
		t.Fatalf("first run: %v", err)
	}

	if err := serveAndProbe(args, func(addr string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c := client.New("http://" + addr)
		st, err := c.WatchSnapshot(ctx, watchID)
		if err != nil {
			return errors.New("watch session did not survive the restart: " + err.Error())
		}
		if st.Pairs != pairsAfterUpdate {
			return errors.New("recovered relation differs from pre-restart state")
		}
		stats, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if stats.WAL == nil || stats.WAL.RecoveredSessions != 1 {
			return errors.New("stats lack the recovery block")
		}
		return nil
	}); err != nil {
		t.Fatalf("second run: %v", err)
	}
}

// serveAndProbe runs the daemon with args, calls probeFn with its
// address once it serves, and returns probeFn's error, or else the
// daemon's once it has drained.
func serveAndProbe(args []string, probeFn func(addr string) error) error {
	var stdout, stderr bytes.Buffer
	errCh := make(chan error, 1)
	probed := make(chan error, 1)
	go func() {
		errCh <- run(args, &stdout, &stderr, func(addr string) { probed <- probeFn(addr) })
	}()
	if err := <-probed; err != nil {
		return err
	}
	select {
	case err := <-errCh:
		return err
	case <-time.After(15 * time.Second):
		return errors.New("daemon did not drain")
	}
}

// TestAutoBindsNoOracle: under the default -oracle auto a 3000-node
// dataset is served with no distance oracle — /graphs reports "none",
// and after a bounded /match /stats reports no oracle build time.
func TestAutoBindsNoOracle(t *testing.T) {
	const spec = "youtube:0.3:7"
	g, err := loadDataset(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 3000 {
		t.Fatalf("%s has %d nodes, want at least 3000", spec, g.N())
	}
	p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 4, Edges: 4, K: 3, IsoBias: true, Seed: 5}, g)
	if p.AllBoundsOne() {
		t.Fatal("the generated pattern has no bound > 1")
	}
	args := []string{"-listen", "127.0.0.1:0", "-dataset", "tube=" + spec, "-oracle", "auto", "-timeout", "10s"}
	if err := serveAndProbe(args, func(addr string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c := client.New("http://" + addr)
		infos, err := c.Graphs(ctx)
		if err != nil {
			return err
		}
		if len(infos) != 1 || infos[0].Nodes != g.N() || infos[0].Oracle != "none" {
			return fmt.Errorf("/graphs = %+v, want one %d-node graph with oracle none", infos, g.N())
		}
		rel, err := c.Match(ctx, "tube", p)
		if err != nil {
			return err
		}
		if rel.Stats.Oracle != "none" || rel.Stats.OracleBuildNS != 0 || rel.Stats.OracleQueries != 0 {
			return fmt.Errorf("/match stats = %+v, want no oracle, no build and no probe", rel.Stats)
		}
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if st.Queries["match"] != 1 || st.OracleBuildNS != 0 {
			return fmt.Errorf("/stats = %+v, want one match and oracle_build_ns 0", st)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// probe exercises a live daemon end to end: health, graph listing, one
// query per semantics family, and a watch/update round.
func probe(addr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := client.New("http://" + addr)
	if !c.Healthy(ctx) {
		return errors.New("daemon not healthy")
	}
	infos, err := c.Graphs(ctx)
	if err != nil {
		return err
	}
	if len(infos) != 1 || infos[0].Name != "tiny" || infos[0].Nodes != 6 {
		return errors.New("unexpected graph listing")
	}
	p, err := gpm.LoadPatternFile(filepath.Join("testdata", "tiny.pattern"))
	if err != nil {
		return err
	}
	rel, err := c.Match(ctx, "tiny", p)
	if err != nil {
		return err
	}
	if !rel.OK {
		return errors.New("tiny pattern should match tiny graph")
	}
	st, err := c.Watch(ctx, "tiny", p, "dual")
	if err != nil {
		return err
	}
	if _, _, err := c.Update(ctx, "tiny", []gpm.Update{gpm.DeleteEdge(0, 1)}); err != nil {
		return err
	}
	return c.CloseWatch(ctx, st.ID)
}
