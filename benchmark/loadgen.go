package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one timed request.
type sample struct {
	op      int32
	at      time.Duration // completion time since the phase began
	lat     time.Duration // response fully read, minus send time (closed loop) or due time (open loop)
	late    time.Duration // open loop: send time minus due time
	bytes   int32
	marker  string // stats.cache of a relation response
	failure string // empty for a correct answer
}

// load is what one load-generation phase produced.
type load struct {
	samples []sample
	began   time.Time // sample.at counts from here
	elapsed time.Duration
}

// target is what a load phase sends to and how it judges the replies.
type target struct {
	hc    *http.Client
	base  string
	ops   []op
	order []int32
	// stamp, when set, is sampled just before each request is sent and
	// handed to check with the 200 response body, so a checker beside a
	// writer can bound the graph states the reply may have seen.
	stamp func() int64
	began time.Time // start of the current phase
	// giveUp, when set, ends an open loop as soon as a request leaves the
	// generator this long after its due time; the rest is not sent.
	giveUp time.Duration
	check  func(o *op, body []byte, stamp int64) (marker string, err error)
}

// issue sends op i, reads and checks the reply and returns the sample
// with lat measured from `from`.
func (t *target) issue(ctx context.Context, i int32, from time.Time, buf *bytes.Buffer) sample {
	o := &t.ops[i]
	var stamp int64
	if t.stamp != nil {
		stamp = t.stamp()
	}
	sent := time.Now()
	code, err := do(ctx, t.hc, "POST", t.base+o.path, o.body, buf)
	done := time.Now()
	s := sample{op: i, at: done.Sub(t.began), lat: done.Sub(from), late: sent.Sub(from), bytes: int32(buf.Len())}
	switch {
	case err != nil:
		s.failure = err.Error()
	case code != http.StatusOK:
		s.failure = fmt.Sprintf("%s: HTTP %d: %s", o.path, code, bytes.TrimSpace(buf.Bytes()))
	default:
		if s.marker, err = t.check(o, buf.Bytes(), stamp); err != nil {
			s.failure = err.Error()
		}
	}
	return s
}

// closedLoop runs `clients` callers that each send their next request
// when the previous reply is in, walking the shared order (wrapping
// around) until dur has passed or ctx ends.
func (t *target) closedLoop(ctx context.Context, clients int, dur time.Duration) load {
	var next atomic.Int64
	per := make([][]sample, clients)
	start := time.Now()
	t.began = start
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := t.order[int(next.Add(1)-1)%len(t.order)]
				per[c] = append(per[c], t.issue(ctx, i, time.Now(), &buf))
			}
		}(c)
	}
	wg.Wait()
	return merge(per, start)
}

// openLoop sends order[k] at start+arrivals[k] whatever the state of
// earlier requests, over at most `conns` connections: a request whose
// due time finds every connection busy waits in the generator, and that
// wait is part of its latency, which is timed from the due time. A stall
// in the server is therefore charged to every request that was due
// during it, not only to the one that hit it.
func (t *target) openLoop(ctx context.Context, conns int, arrivals []time.Duration) load {
	var next atomic.Int64
	var gaveUp atomic.Bool
	per := make([][]sample, conns)
	start := time.Now()
	t.began = start
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && !gaveUp.Load() {
				k := int(next.Add(1) - 1)
				if k >= len(arrivals) {
					return
				}
				due := start.Add(arrivals[k])
				waitUntil(due)
				s := t.issue(ctx, t.order[k%len(t.order)], due, &buf)
				per[c] = append(per[c], s)
				if t.giveUp > 0 && s.late > t.giveUp {
					gaveUp.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	return merge(per, start)
}

// waitUntil returns at t, to within microseconds. Sleeping alone cannot
// pace sub-millisecond arrivals (the Go runtime rounds a sleep up to its
// next millisecond; a raw nanosleep is exact to 0.1 ms, but it idles the
// processor, and on this virtual machine the daemon's wake-up on an idle
// processor costs another 0.1 ms: p50 0.29 ms against 0.18), so the last
// stretch is spent yielding the processor: the daemon's threads run
// whenever they are runnable, the generator takes the core only when it
// is otherwise idle.
func waitUntil(t time.Time) {
	if wait := time.Until(t); wait > 3*time.Millisecond {
		time.Sleep(wait - 2*time.Millisecond)
	}
	for time.Now().Before(t) {
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

func merge(per [][]sample, start time.Time) load {
	l := load{began: start, elapsed: time.Since(start)}
	for _, p := range per {
		l.samples = append(l.samples, p...)
	}
	return l
}

// timedMetrics are the timed end-to-end metrics of a phase and the number
// of samples behind its percentiles. They are taken over every correct
// sample of the phase, nothing trimmed by latency: a stall is charged to
// every request it delayed. (endToEnd first takes out the stretches the
// hypervisor stole from; see steal.go.)
func (l load) timedMetrics() (map[string]metric, int) {
	lat := l.latencies(func(s *sample) bool { return s.failure == "" })
	secs := l.elapsed.Seconds()
	return map[string]metric{
		"ops_per_s":         {float64(len(lat)) / secs, "1/s"},
		"latency_p50_ms":    {percentile(lat, 50), "ms"},
		"latency_p99_ms":    {percentile(lat, 99), "ms"},
		"response_mb_per_s": {float64(l.bytes()) / (1 << 20) / secs, "MiB/s"},
	}, len(lat)
}

// failed counts the samples that were not correct answers and returns
// the first failure's text.
func (l load) failed() (n int, first string) {
	for _, s := range l.samples {
		if s.failure != "" {
			if n == 0 {
				first = s.failure
			}
			n++
		}
	}
	return n, first
}

func (l load) firstFailure() string {
	_, first := l.failed()
	return first
}

func (l load) bytes() int64 {
	var n int64
	for _, s := range l.samples {
		n += int64(s.bytes)
	}
	return n
}

// latencies returns the sorted latencies in ms of the samples keep
// selects (nil: all).
func (l load) latencies(keep func(*sample) bool) []float64 {
	var out []float64
	for i := range l.samples {
		if s := &l.samples[i]; keep == nil || keep(s) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// lateness returns the sorted send delays in ms of an open loop: how
// long after its due time each request left the generator.
func (l load) lateness() []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = float64(s.late) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
