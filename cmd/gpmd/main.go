// Command gpmd is the graph pattern matching daemon: it binds named
// data graphs into gpm.Engines and serves every matching semantics the
// module implements over HTTP/JSON — bounded simulation, plain/dual/
// strong simulation, subgraph-isomorphism enumeration and counting
// (/enumerate and /count, planner-backed by default), pattern batches,
// and stateful watch sessions fed by streamed edge updates. See
// internal/server for the endpoint list and gpm/client for the typed Go
// client.
//
// Usage:
//
//	gpmd -listen :8474
//	     -graph social=social.graph -graph cites=cites.graph
//	     -dataset tube=youtube:0.1:7
//	     [-oracle auto] [-workers N] [-timeout 30s]
//	     [-cache-bytes N] [-debug-addr ADDR]
//	     [-wal DIR [-wal-sync always|none] [-snapshot-every N]] [-v]
//
// -graph binds a graph file in the .graph text format under a name;
// -dataset binds a synthetic dataset stand-in ("matter", "pblog" or
// "youtube", optionally :scale and :seed). Both repeat. Every request
// names the graph it queries, so one daemon serves many graphs, each
// behind its own engine. -timeout is the default per-request deadline;
// requests may lower it via timeout_ms. No graph gets a distance oracle:
// bounded queries of every size are answered by witness sweeps over the
// graph's adjacency, so no index is built and memory stays O(|V|+|E|)
// per graph. -oracle accepts only auto, that behaviour, and stays for
// existing command lines.
//
// -cache-bytes budgets the relation-result cache: responses to /match,
// /simulate, /dual and /strong are cached under the pattern's canonical
// form (invariant under node renaming, so isomorphic patterns share an
// entry) and the graph's update generation, and near-misses are
// answered by seeding the fixpoint from a cached containing pattern's
// relation. Cached answers are byte-identical to cold ones; 0 disables
// the cache.
//
// -wal makes the daemon durable: update batches and watch sessions are
// written to a write-ahead log in DIR before they take effect, a
// snapshot of every graph is taken at startup and then after every
// -snapshot-every update batches, and a restart pointed at the same DIR
// recovers — graphs, watch sessions (same ids), maintained relations —
// to exactly the state of a process that never crashed. -wal-sync
// chooses whether every append reaches disk before the HTTP response
// ("always", the default) or rides the page cache ("none").
//
// -debug-addr serves net/http/pprof's /debug/pprof/ endpoints on a
// second listener, off by default, so profiles never share the public
// address.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpm"
	"gpm/internal/server"
	"gpm/internal/wal"
)

// multiFlag collects a repeatable name=spec flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

// options is the parsed command line.
type options struct {
	listen    string
	graphs    multiFlag
	datasets  multiFlag
	oracle    string
	workers   int
	timeout   time.Duration
	cacheB    int64
	walDir    string
	walSync   string
	snapEvery int
	debugAddr string
	verbose   bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "gpmd:", err)
		}
		os.Exit(2)
	}
}

// parseFlags parses args into options; usage and errors go to stderr.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	opts := &options{}
	fs := flag.NewFlagSet("gpmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.listen, "listen", ":8474", "listen address")
	fs.Var(&opts.graphs, "graph", "bind a graph file: name=path (repeatable)")
	fs.Var(&opts.datasets, "dataset", "bind a dataset stand-in: name=matter|pblog|youtube[:scale[:seed]] (repeatable)")
	fs.StringVar(&opts.oracle, "oracle", "auto", "distance oracle: auto (none: witness sweeps, no index)")
	fs.IntVar(&opts.workers, "workers", 0, "matching parallelism per engine (0 = GOMAXPROCS)")
	fs.DurationVar(&opts.timeout, "timeout", 30*time.Second, "default per-request deadline (0 = none)")
	fs.Int64Var(&opts.cacheB, "cache-bytes", 64<<20, "relation-result cache budget in bytes (0 = no caching)")
	fs.StringVar(&opts.walDir, "wal", "", "write-ahead log directory; enables crash recovery (empty = in-memory only)")
	fs.StringVar(&opts.walSync, "wal-sync", "always", "WAL append durability: always (fsync per batch) | none (page cache)")
	fs.IntVar(&opts.snapEvery, "snapshot-every", 256, "WAL snapshot cadence in update batches (0 = only at startup and shutdown)")
	fs.StringVar(&opts.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	fs.BoolVar(&opts.verbose, "v", false, "log requests and lifecycle to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	return opts, nil
}

// splitBinding splits one "name=spec" flag value.
func splitBinding(flagName, v string) (name, spec string, err error) {
	eq := strings.IndexByte(v, '=')
	if eq <= 0 || eq == len(v)-1 {
		return "", "", fmt.Errorf("-%s %q: want name=%s", flagName, v, map[string]string{"graph": "path", "dataset": "spec"}[flagName])
	}
	return v[:eq], v[eq+1:], nil
}

// loadDataset parses a dataset spec "ds[:scale[:seed]]" and builds the
// stand-in graph.
func loadDataset(spec string) (*gpm.Graph, error) {
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return nil, fmt.Errorf("dataset spec %q: want ds[:scale[:seed]]", spec)
	}
	scale := 0.1
	var seed int64 = 1
	if len(parts) >= 2 && parts[1] != "" {
		f, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("dataset spec %q: bad scale %q (want a float in (0,1])", spec, parts[1])
		}
		scale = f
	}
	if len(parts) == 3 && parts[2] != "" {
		n, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset spec %q: bad seed %q", spec, parts[2])
		}
		seed = n
	}
	return gpm.Dataset(parts[0], seed, scale)
}

// buildServer loads every graph and binds it into a fresh server. With
// -wal it first opens (and recovers) the log, so every Bind restores
// that graph's pre-crash state, then checkpoints so the initial graphs
// are always snapshotted. Progress lines go to logw when verbose. The
// returned WAL is nil without -wal; the caller owns closing it.
func buildServer(opts *options, logw io.Writer) (*server.Server, *wal.WAL, error) {
	if len(opts.graphs)+len(opts.datasets) == 0 {
		return nil, nil, fmt.Errorf("no graphs bound: pass at least one -graph or -dataset")
	}
	if opts.oracle != "auto" {
		return nil, nil, fmt.Errorf("unknown oracle %q (want auto)", opts.oracle)
	}
	if opts.snapEvery < 0 {
		return nil, nil, fmt.Errorf("-snapshot-every must be >= 0 (got %d)", opts.snapEvery)
	}
	sync, err := wal.ParseSyncPolicy(opts.walSync)
	if err != nil {
		return nil, nil, fmt.Errorf("-wal-sync: %v", err)
	}
	var engOpts []gpm.EngineOption
	if opts.workers > 0 {
		engOpts = append(engOpts, gpm.WithWorkers(opts.workers))
	}
	if opts.cacheB < 0 {
		return nil, nil, fmt.Errorf("-cache-bytes must be >= 0 (got %d)", opts.cacheB)
	}
	cfg := server.Config{DefaultTimeout: opts.timeout, CacheBytes: opts.cacheB}
	var w *wal.WAL
	if opts.walDir != "" {
		var rec *wal.Recovery
		w, rec, err = wal.Open(opts.walDir, wal.Options{Sync: sync})
		if err != nil {
			return nil, nil, fmt.Errorf("-wal: %v", err)
		}
		if rec.Batches > 0 || rec.Sessions > 0 || len(rec.Graphs) > 0 {
			fmt.Fprintf(logw, "gpmd: wal %s: recovering generation %d (%d graphs, %d sessions, %d batches%s)\n",
				opts.walDir, rec.Generation, len(rec.Graphs), rec.Sessions, rec.Batches,
				map[bool]string{true: ", torn tail truncated"}[rec.Truncated])
		}
		cfg.WAL, cfg.Recovery, cfg.SnapshotEvery = w, rec, opts.snapEvery
	}
	srv := server.New(cfg)
	closeOnErr := func(err error) (*server.Server, *wal.WAL, error) {
		if w != nil {
			w.Close()
		}
		return nil, nil, err
	}
	for _, v := range opts.graphs {
		name, path, err := splitBinding("graph", v)
		if err != nil {
			return closeOnErr(err)
		}
		g, err := gpm.LoadGraphFile(path)
		if err != nil {
			return closeOnErr(fmt.Errorf("-graph %s: %v", name, err))
		}
		if err := srv.Bind(name, g, engOpts...); err != nil {
			return closeOnErr(err)
		}
		fmt.Fprintf(logw, "gpmd: bound %s from %s (%d nodes, %d edges)\n", name, path, g.N(), g.M())
	}
	for _, v := range opts.datasets {
		name, spec, err := splitBinding("dataset", v)
		if err != nil {
			return closeOnErr(err)
		}
		g, err := loadDataset(spec)
		if err != nil {
			return closeOnErr(fmt.Errorf("-dataset %s: %v", name, err))
		}
		if err := srv.Bind(name, g, engOpts...); err != nil {
			return closeOnErr(err)
		}
		fmt.Fprintf(logw, "gpmd: bound %s from dataset %s (%d nodes, %d edges)\n", name, spec, g.N(), g.M())
	}
	if w != nil {
		// Snapshot the recovered (or initial) state: from here on replay
		// starts at this generation instead of the binding flags.
		if err := srv.Checkpoint(); err != nil {
			return closeOnErr(fmt.Errorf("-wal: initial snapshot: %v", err))
		}
	}
	return srv, w, nil
}

// run is main, testable: parse, build, listen, serve until a signal or
// until ready (when non-nil) returns after being told the bound address
// — the hook the CLI tests use to drive a live daemon and stop it.
func run(args []string, stdout, stderr io.Writer, ready func(addr string)) error {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	logw := io.Discard
	if opts.verbose {
		logw = stderr
	}
	srv, w, err := buildServer(opts, logw)
	if err != nil {
		return err
	}
	if w != nil {
		defer w.Close()
	}
	publishExpvar(srv)

	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "gpmd: serving %s on %s\n", strings.Join(srv.GraphNames(), ", "), ln.Addr())
	if opts.debugAddr != "" {
		dln, err := net.Listen("tcp", opts.debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("-debug-addr: %v", err)
		}
		debugSrv := &http.Server{Handler: debugMux()}
		go debugSrv.Serve(dln)
		defer debugSrv.Close()
		fmt.Fprintf(stdout, "gpmd: debug endpoints on %s\n", dln.Addr())
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.Handle("/debug/vars", expvar.Handler())
	httpSrv := &http.Server{Handler: mux}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	if ready != nil {
		go func() {
			ready(ln.Addr().String())
			cancel()
		}()
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: cancel in-flight fixpoints (they poll their
	// contexts), then drain connections.
	fmt.Fprintf(logw, "gpmd: shutting down\n")
	srv.Close()
	shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if w != nil {
		// A parting snapshot makes the next start replay-free; failure is
		// not fatal, the log already holds everything.
		if err := srv.Checkpoint(); err != nil {
			fmt.Fprintf(logw, "gpmd: shutdown snapshot: %v\n", err)
		}
	}
	fmt.Fprintf(stdout, "gpmd: drained\n")
	return nil
}

// debugMux routes net/http/pprof's handlers, the way its import registers
// them on http.DefaultServeMux, which gpmd never serves.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// publishExpvar exposes the server's aggregate stats at /debug/vars
// under "gpmd". Re-publishing (tests boot several daemons per process)
// swaps the snapshot source instead of panicking on the duplicate name.
var expvarSrv struct {
	once sync.Once
	mu   sync.Mutex
	cur  *server.Server
}

func publishExpvar(srv *server.Server) {
	expvarSrv.mu.Lock()
	expvarSrv.cur = srv
	expvarSrv.mu.Unlock()
	expvarSrv.once.Do(func() {
		expvar.Publish("gpmd", expvar.Func(func() interface{} {
			expvarSrv.mu.Lock()
			cur := expvarSrv.cur
			expvarSrv.mu.Unlock()
			return cur.StatsSnapshot()
		}))
	})
}
