package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"gpm/client"
)

// workload is one traffic mix against one daemon configuration. The
// names, and the reasons, are the ones BENCHMARK.json carries.
type workload struct {
	name, why   string
	full, smoke spec
	clients     int  // closed-loop callers or open-loop connections
	wal         bool // run gpmd on a write-ahead log, open the four watch sessions
	recovers    bool // time set-up as crash recovery instead of a fresh boot
	interval    time.Duration
	cacheBytes  func(in *inputs, rf *refs) int64 // nil: gpmd's default
	measure     func(r *run, d *daemon, dur time.Duration) (load, error)
}

// Sizes were chosen on the seed commit at nproc = 2 so that one run's
// references, set-ups and 15 timed seconds take about 20 s; README.md
// records the measurements behind them.
var workloads = []*workload{
	{
		name:       "cold-relation",
		why:        "distinct patterns, cache off, PLL-sized graph: the fixpoints and the distance oracle do nearly all the work",
		full:       spec{graph: "youtube", nodes: 5000, relBase: [4]int{800, 400, 400, 400}, window: 150, isoPats: 12, toggles: 2},
		smoke:      spec{graph: "youtube", nodes: 4200, relBase: [4]int{8, 4, 4, 4}, window: 150, isoPats: 2, toggles: 2},
		clients:    2,
		cacheBytes: func(*inputs, *refs) int64 { return 0 },
		measure:    (*run).closed,
	},
	{
		name: "hot-zipf",
		why: fmt.Sprintf("Zipf-repeated patterns, fresh respellings and refinements, open loop at the frozen R = %d req/s (rate ladder R/2..4R, p99 limit %d ms): decode, canonicalise, cache probe, response write do the work",
			hotZipfRate, ladderLimitMS),
		full:    spec{graph: "youtube", nodes: 3000, relBase: [4]int{100, 100, 100, 100}, window: 150, isoPats: 12, zipf: true, zipfQ: 4, rate: hotZipfRate, toggles: 2},
		smoke:   spec{graph: "youtube", nodes: 400, relBase: [4]int{6, 6, 6, 6}, window: 300, isoPats: 2, zipf: true, zipfQ: 4, rate: 500, toggles: 2},
		clients: 2,
		measure: (*run).open,
	},
	{
		name:    "watch-update",
		why:     "a Zipf reader beside a writer posting a batch every 25 ms on a WAL-backed daemon with four watch sessions: cache invalidation and the update write lock sit on the read path",
		full:    spec{graph: "youtube", nodes: 1000, relBase: [4]int{48, 48, 48, 48}, window: 200, isoPats: 12, zipf: true, zipfQ: 4, toggles: 4},
		smoke:   spec{graph: "youtube", nodes: 300, relBase: [4]int{4, 4, 4, 4}, window: 400, isoPats: 2, zipf: true, zipfQ: 1, toggles: 3},
		clients: 1,
		wal:     true,
		// 600 batches in 15 s, each holding the write lock for some 10 ms
		// beside the reader: 40 % writer duty.
		interval: 35 * time.Millisecond,
		// About half of what the reader pool's answers occupy in the
		// cache (entry overhead, two copies of the canonical text, 4 bytes
		// a pair plus some 7 a pair of memoised response), so entries are
		// evicted and stale generations dropped.
		cacheBytes: func(in *inputs, rf *refs) int64 {
			var total int64
			for _, a := range rf.ans {
				total += 1024 + 11*int64(a.pairs)
			}
			return total / 2
		},
		measure: (*run).readBesideWrites,
	},
	{
		name:     "update-recover",
		why:      "back-to-back /update batches on a daemon recovered from its WAL after SIGKILL: latency_p50/p99_ms are the acknowledgement's (the issue's update_p50/p95_ms), setup_s is the recovery (its recovery_s)",
		full:     spec{graph: "youtube", nodes: 1000, relBase: [4]int{8, 8, 8, 8}, window: 300, isoPats: 12, toggles: 64},
		smoke:    spec{graph: "youtube", nodes: 300, relBase: [4]int{2, 2, 2, 2}, window: 400, isoPats: 2, toggles: 3},
		clients:  1,
		wal:      true,
		recovers: true,
		measure:  (*run).writes,
	},
	{
		name:    "enumerate",
		why:     "alternating /count and budgeted /enumerate on a clique-planted graph: plan and subiso do all the work, no fixpoint, oracle or cache",
		full:    spec{graph: "cliques", nodes: 500, relBase: [4]int{8, 8, 8, 8}, window: 100, isoPats: 60, toggles: 2},
		smoke:   spec{graph: "cliques", nodes: 200, relBase: [4]int{2, 2, 2, 2}, window: 300, isoPats: 4, toggles: 2},
		clients: 2,
		measure: (*run).closed,
	},
}

// hotZipfRate is the frozen open-loop reference rate R of hot-zipf, and
// of every workload's rate ladder: an eighth of the closed-loop saturation
// measured once on the seed commit (10 300 req/s), low enough that p99 is
// a containment request's service time and not the queue behind it (see
// README.md). BENCHMARK.json carries it, and the ladder's latency limit,
// in hot-zipf's reason.
const hotZipfRate = 1250

// A run sets the daemon up at least minSetups times and goes on, up to
// maxSetups, until the set-ups have taken setupBudget together; setup_s
// is their median. Cheap set-ups (tens of ms) need the extra repetitions
// to give a steady median. recoverBatches is how many batches each
// recovery replays.
const (
	minSetups      = 3
	maxSetups      = 40
	setupBudget    = 1500 * time.Millisecond
	recoverBatches = 32
)

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is where a run finds the repository and keeps its files.
type env struct {
	root  string // repository root: ./cmd/gpmd is built from here
	dir   string // build and scratch directory
	gpmd  string // built daemon, set by build
	smoke bool
}

// run is one end-to-end run of one workload.
type run struct {
	w       *workload
	in      *inputs
	rf      *refs
	ctx     context.Context
	hc      *http.Client
	ids     [4]int64 // watch session ids, by semantics
	batches int      // update batches acknowledged so far
	// sent and acked count the batches the writer has begun to send and
	// seen acknowledged; the reader beside it samples them atomically.
	sent, acked int64
	updates     load // the writer's samples, whichever workload has one
}

// report is everything one run measured. The driver reads only the
// embedded result; -all and -compare keep the rest.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
	InputsSHA256      string            `json:"inputs_sha256"`
	ReferenceChecksum string            `json:"reference_checksum"`
	Samples           map[string]int    `json:"samples,omitempty"` // sample count behind each percentile
	Info              map[string]metric `json:"info,omitempty"`    // measured, not gated
	Counts            map[string]int64  `json:"counts,omitempty"`  // program counts that must repeat exactly
	FirstFailure      string            `json:"first_failure,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// referenceChecksum folds the reference answers of every op, in op
// order, in the base graph state. Every response of a run with failed = 0
// equalled its reference, so this is also the fold of the responses.
func referenceChecksum(in *inputs, rf *refs) string {
	var sum uint64
	for _, o := range in.ops {
		a := rf.ans[o.ref]
		sum = bits.RotateLeft64(sum, 1) ^ a.sum[0] ^ uint64(a.count) ^ a.embSum
	}
	return fmt.Sprintf("%016x", sum)
}

// flagSummary describes the daemon's flags for a run set's metadata.
func (w *workload) flagSummary() string {
	s := "-oracle auto -workers 0"
	switch {
	case w.cacheBytes == nil:
		s += " -cache-bytes default"
	case w.wal:
		s += " -cache-bytes half-of-pool"
	default:
		s += " -cache-bytes 0"
	}
	if w.wal {
		s += " -wal DIR -wal-sync none -snapshot-every 64"
	}
	return s
}

// flags are the gpmd flags of this run's daemon beyond -listen.
func (r *run) flags(graphFile, walDir string) []string {
	args := []string{"-graph", graphName + "=" + graphFile}
	if r.w.cacheBytes != nil {
		args = append(args, "-cache-bytes", strconv.FormatInt(r.w.cacheBytes(r.in, r.rf), 10))
	}
	if r.w.wal {
		// fsync on a sandbox disk is noise: appends ride the page cache.
		args = append(args, "-wal", walDir, "-wal-sync", "none", "-snapshot-every", "64")
	}
	return args
}

// endToEnd runs workload w once: inputs, references, set-up (several
// times), the timed load, the checks.
func endToEnd(ctx context.Context, e *env, w *workload, seed int64, seconds float64) (*report, error) {
	sp := w.full
	if e.smoke {
		sp = w.smoke
	}
	began := time.Now()
	in, rf, err := prepare(sp, seed, seconds, w.wal)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: inputs and %d reference answers in %.1fs\n", w.name, len(rf.ans), time.Since(began).Seconds())
	tmp, err := os.MkdirTemp(e.dir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	graphFile, err := in.write(tmp)
	if err != nil {
		return nil, err
	}
	r := &run{w: w, in: in, rf: rf, ctx: ctx, hc: newHTTPClient(w.clients + 1)}
	defer r.hc.CloseIdleConnections()

	var (
		d      *daemon
		setups []float64
	)
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	walDir := filepath.Join(tmp, "wal")
	var spent time.Duration
	budget := setupBudget
	if e.smoke {
		budget = 0
	}
	for rep := 0; rep < minSetups || (rep < maxSetups && spent < budget); rep++ {
		if w.recovers {
			// Untimed: leave behind a log to recover from. The first boot
			// opens the sessions; every crash loses recoverBatches batches
			// logged since the last snapshot.
			if d == nil {
				if d, err = startDaemon(e.gpmd, r.flags(graphFile, walDir)...); err != nil {
					return nil, err
				}
				if err := r.openWatches(d); err != nil {
					return nil, err
				}
			}
			if l := r.postBatches(d, recoverBatches, time.Time{}, 0); l.firstFailure() != "" {
				return nil, fmt.Errorf("preparing the log: %s", l.firstFailure())
			}
			d.kill()
		} else if d != nil {
			d.kill()
			walDir = filepath.Join(tmp, "wal"+strconv.Itoa(rep))
		}
		start := time.Now()
		if d, err = startDaemon(e.gpmd, r.flags(graphFile, walDir)...); err != nil {
			return nil, err
		}
		if err := r.ready(d); err != nil {
			return nil, fmt.Errorf("set-up %d: %v", rep, err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}

	steal := watchSteal()
	l, err := w.measure(r, d, time.Duration(seconds*float64(time.Second)))
	dirty, stolen := steal.stop()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil

	failed, first := l.failed()
	attempted := len(l.samples)
	paths := map[string]int{}
	for _, s := range l.samples {
		paths[s.marker]++
	}
	kept := l.clean(dirty)
	timed, n := kept.timedMetrics()
	rep := &report{
		Workload: w.name, Seed: seed,
		InputsSHA256: in.sha256, ReferenceChecksum: referenceChecksum(in, rf),
		Samples:      map[string]int{"latency_p50_ms": n, "latency_p99_ms": n},
		Info:         map[string]metric{},
		FirstFailure: first,
	}
	rep.result = result{Correct: failed == 0 && n > 0, Attempted: attempted, Failed: failed, Metrics: timed}
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	for _, sem := range semantics {
		if ls := l.latencies(func(s *sample) bool { return s.failure == "" && in.ops[s.op].kind == sem }); len(ls) > 0 && !w.recovers {
			rep.Info["server.latency_p50_ms."+sem] = metric{percentile(ls, 50), "ms"}
		}
	}
	if !w.recovers && sp.graph != "cliques" {
		// Which cache path served the relation queries, from the responses'
		// stats.cache markers.
		for marker, name := range map[string]string{"hit": "qcache.hit_share", "containment": "qcache.containment_share", "": "qcache.cold_share"} {
			rep.Info[name] = metric{float64(paths[marker]) / float64(attempted), "ratio"}
		}
	}
	// What the hypervisor took from this machine during the timed phase, as
	// far as the kernel saw it, and how much of the phase is behind the
	// timed metrics once the stretches it was taken in are left out.
	rep.Info["host.steal_share"] = metric{stolen, "ratio"}
	rep.Info["host.clean_share"] = metric{kept.elapsed.Seconds() / l.elapsed.Seconds(), "ratio"}
	if sp.rate > 0 {
		rep.Info["loadgen.late_p50_ms"] = metric{percentile(l.lateness(), 50), "ms"}
		rep.Info["loadgen.late_p99_ms"] = metric{percentile(l.lateness(), 99), "ms"}
	}
	if ul := r.updates.latencies(nil); len(ul) > 0 && !w.recovers {
		rep.Info["update_p50_ms"] = metric{percentile(ul, 50), "ms"}
		rep.Info["update_p95_ms"] = metric{percentile(ul, 95), "ms"}
		rep.Samples["update_p95_ms"] = len(ul)
		uf, ufirst := r.updates.failed()
		rep.Attempted, rep.Failed = rep.Attempted+len(ul), rep.Failed+uf
		if uf > 0 {
			rep.Correct = false
			if rep.FirstFailure == "" {
				rep.FirstFailure = ufirst
			}
		}
	}
	if w.recovers {
		rep.Info["recovery_s"] = rep.Metrics["setup_s"]
	}
	return rep, nil
}

// ready brings a started daemon to the point timing begins at: its first
// correct answer (which pays for the lazy oracle build), the watch
// sessions of a WAL workload, and the warm-up of a cached one.
func (r *run) ready(d *daemon) error {
	t := r.target(d)
	var buf bytes.Buffer
	if r.w.recovers {
		return r.checkWatches(d)
	}
	if r.w.wal {
		if err := r.openWatches(d); err != nil {
			return err
		}
	}
	for _, i := range r.in.warm {
		if s := t.issue(r.ctx, i, time.Now(), &buf); s.failure != "" {
			return fmt.Errorf("first answers: %s", s.failure)
		}
	}
	return nil
}

// target aims a load phase at d; replies are checked against the
// reference for the base graph state.
func (r *run) target(d *daemon) *target {
	return &target{
		hc: r.hc, base: d.base, ops: r.in.ops, order: r.in.order,
		check: func(o *op, body []byte, _ int64) (string, error) { return r.rf.check(o, body, []int{0}) },
	}
}

// closed is the measure phase of the closed-loop read workloads.
func (r *run) closed(d *daemon, dur time.Duration) (load, error) {
	return r.target(d).closedLoop(r.ctx, r.w.clients, dur), nil
}

// open is the measure phase of the open-loop workload: the whole seeded
// arrival schedule at the reference rate.
func (r *run) open(d *daemon, _ time.Duration) (load, error) {
	return r.target(d).openLoop(r.ctx, r.w.clients, r.in.arrivals), nil
}

// openWatches opens one watch session per semantics and checks the
// relations they start from.
func (r *run) openWatches(d *daemon) error {
	var buf bytes.Buffer
	for k, sem := range semantics {
		body, err := json.Marshal(client.WatchRequest{Graph: graphName, Pattern: r.in.watch[k], Semantics: sem})
		if err != nil {
			return err
		}
		code, err := do(r.ctx, r.hc, "POST", d.base+"/watch", body, &buf)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("POST /watch (%s): HTTP %d %v: %s", sem, code, err, buf.Bytes())
		}
		var ws client.WatchState
		if err := json.Unmarshal(buf.Bytes(), &ws); err != nil {
			return err
		}
		if err := r.rf.checkWatch(&ws, k, 0); err != nil {
			return err
		}
		r.ids[k] = ws.ID
	}
	return nil
}

// checkWatches reads every session back and compares it with the
// reference for the state the acknowledged batches left. After a crash
// this is the recovery check: pre-kill state, recovered state and a
// from-scratch recompute on the mirror graph all have to agree, and the
// first and last are compared with the same reference.
func (r *run) checkWatches(d *daemon) error {
	var buf bytes.Buffer
	state := r.in.stateAfter(r.batches - r.batches/10)
	for k := range semantics {
		code, err := do(r.ctx, r.hc, "GET", d.base+"/watch/"+strconv.FormatInt(r.ids[k], 10), nil, &buf)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("GET /watch/%d: HTTP %d %v: %s", r.ids[k], code, err, buf.Bytes())
		}
		var ws client.WatchState
		if err := json.Unmarshal(buf.Bytes(), &ws); err != nil {
			return err
		}
		if err := r.rf.checkWatch(&ws, k, state); err != nil {
			return err
		}
	}
	return nil
}

// postBatches posts the next batches of the fixed stream one at a time,
// `interval` apart (0: back to back), until n are acknowledged (n > 0) or
// the deadline passes, and checks every acknowledgement: the batch was
// applied whole, every session reported, and each session's pair count
// is the reference's for the state the batch leaves.
func (r *run) postBatches(d *daemon, n int, deadline time.Time, interval time.Duration) load {
	var l load
	var buf bytes.Buffer
	start := time.Now()
	for k := 0; (n > 0 && k < n) || (n == 0 && time.Now().Before(deadline)); k++ {
		if r.ctx.Err() != nil {
			break
		}
		if wait := time.Until(start.Add(time.Duration(k) * interval)); wait > 0 {
			time.Sleep(wait)
		}
		ops, state := r.in.batch(r.batches)
		atomic.AddInt64(&r.sent, 1)
		sent := time.Now()
		code, err := do(r.ctx, r.hc, "POST", d.base+"/update", updateBody(ops), &buf)
		s := sample{at: time.Since(start), lat: time.Since(sent), bytes: int32(buf.Len())}
		switch {
		case err != nil:
			s.failure = err.Error()
		case code != http.StatusOK:
			s.failure = fmt.Sprintf("/update: HTTP %d: %s", code, bytes.TrimSpace(buf.Bytes()))
		default:
			if err := r.checkAck(buf.Bytes(), len(ops), state); err != nil {
				s.failure = err.Error()
			}
		}
		r.batches++
		atomic.AddInt64(&r.acked, 1)
		l.samples = append(l.samples, s)
	}
	l.began, l.elapsed = start, time.Since(start)
	return l
}

// checkAck verifies one /update NDJSON acknowledgement.
func (r *run) checkAck(body []byte, applied, state int) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 64<<20)
	if !sc.Scan() {
		return fmt.Errorf("/update: empty acknowledgement")
	}
	var h client.UpdateHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return err
	}
	if h.Applied != applied || h.Watchers != len(semantics) {
		return fmt.Errorf("/update applied %d of %d ops to %d sessions", h.Applied, applied, h.Watchers)
	}
	seen := 0
	for sc.Scan() {
		var wd client.WatchDelta
		if err := json.Unmarshal(sc.Bytes(), &wd); err != nil {
			return err
		}
		for k := range semantics {
			if wd.WatchID != r.ids[k] {
				continue
			}
			seen++
			if want := r.rf.watch[state][k].pairs; wd.Pairs != want {
				return fmt.Errorf("/update: watch %d (%s) holds %d pairs in state %d, reference %d",
					wd.WatchID, semantics[k], wd.Pairs, state, want)
			}
		}
	}
	if seen != len(semantics) {
		return fmt.Errorf("/update reported %d of %d sessions", seen, len(semantics))
	}
	return sc.Err()
}

// writes is the measure phase of update-recover: one caller posting
// batches back to back.
func (r *run) writes(d *daemon, dur time.Duration) (load, error) {
	l := r.postBatches(d, 0, time.Now().Add(dur), 0)
	return l, r.checkWatches(d)
}

// readBesideWrites is the measure phase of watch-update: one closed-loop
// Zipf reader while one writer posts a batch every interval. A reply may
// have been computed on either side of the batches in flight while it
// was outstanding, so it is checked against the states between the
// batches acknowledged when it was sent and those sent when it arrived.
func (r *run) readBesideWrites(d *daemon, dur time.Duration) (load, error) {
	t := r.target(d)
	t.stamp = func() int64 { return atomic.LoadInt64(&r.acked) }
	t.check = func(o *op, body []byte, ackedAtSend int64) (string, error) {
		var states []int
		for n := ackedAtSend; n <= atomic.LoadInt64(&r.sent); n++ {
			states = append(states, r.in.stateAfter(int(n-n/10)))
		}
		return r.rf.check(o, body, states)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.updates = r.postBatches(d, 0, time.Now().Add(dur), r.w.interval)
	}()
	l := t.closedLoop(r.ctx, r.w.clients, dur)
	<-done
	return l, r.checkWatches(d)
}
