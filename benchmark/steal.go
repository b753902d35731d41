package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// This sandbox is a virtual machine whose hypervisor takes the processors
// away in bursts. The kernel counts the time it wanted to run and could
// not (the steal column of /proc/stat), and that count knows nothing of
// the daemon: a lock convoy, a snapshot pause or a garbage collection in
// gpmd steals nothing. A run therefore leaves out of its timed metrics the
// requests that began in a stretch of time the kernel reports stolen from,
// whatever their latency, and counts every other request, however slow.
// In the open loop one stolen 150 ms is otherwise charged to the 190
// requests that fell due in it, which is the whole tail beyond p99: the
// same commit read 1.7 ms and 7.9 ms p99 in two sets of ten runs an hour
// apart, and every run above 3 ms had more than 1 % of its time stolen.
const (
	stealEvery = 250 * time.Millisecond // how often the watch reads /proc/stat
	// stealTicks of 10 ms stolen within one reading interval, 4 % of the two
	// processors' time in it, make the interval dirty. A quiet host shows a
	// tick every second or two.
	stealTicks = 2
	// minClean is how many clean samples a run needs for its percentiles;
	// with fewer (the host stole all the time) it reports over all of them.
	minClean = 1000
)

// cpuTicks reads the machine's stolen and total processor time so far
// from the first line of /proc/stat (zeros where there is none).
func cpuTicks() (stolen, total int64) {
	data, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if n, err := strconv.ParseInt(f, 10, 64); err == nil && i >= 1 && i <= 8 {
			total += n // user nice system idle iowait irq softirq steal
			if i == 8 {
				stolen = n
			}
		}
	}
	return stolen, total
}

// stretch is a span of wall-clock time.
type stretch struct{ from, to time.Time }

// stealWatch reads the steal counter every stealEvery while a phase runs.
type stealWatch struct {
	quit, done    chan struct{}
	at            []time.Time
	stolen, total []int64
}

func watchSteal() *stealWatch {
	w := &stealWatch{quit: make(chan struct{}), done: make(chan struct{})}
	w.read()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.read()
			case <-w.quit:
				w.read()
				return
			}
		}
	}()
	return w
}

func (w *stealWatch) read() {
	s, t := cpuTicks()
	w.at, w.stolen, w.total = append(w.at, time.Now()), append(w.stolen, s), append(w.total, t)
}

// stop ends the watch and returns the stretches between two readings in
// which at least stealTicks were stolen, and the stolen share of the
// machine's processor time over the whole watch.
func (w *stealWatch) stop() (dirty []stretch, share float64) {
	close(w.quit)
	<-w.done
	last := len(w.at) - 1
	for i := 0; i < last; i++ {
		if w.stolen[i+1]-w.stolen[i] >= stealTicks {
			dirty = append(dirty, stretch{w.at[i], w.at[i+1]})
		}
	}
	if dt := w.total[last] - w.total[0]; dt > 0 {
		share = float64(w.stolen[last]-w.stolen[0]) / float64(dt)
	}
	return dirty, share
}

// clean returns the phase without the samples that began (were due, in
// the open loop) during a dirty stretch, and without those stretches'
// time. A phase left with fewer than minClean samples is returned whole.
func (l load) clean(dirty []stretch) load {
	in := func(t time.Time) bool {
		for _, d := range dirty {
			if !t.Before(d.from) && t.Before(d.to) {
				return true
			}
		}
		return false
	}
	out := load{began: l.began, elapsed: l.elapsed}
	end := l.began.Add(l.elapsed)
	for _, d := range dirty {
		from, to := d.from, d.to
		if from.Before(l.began) {
			from = l.began
		}
		if to.After(end) {
			to = end
		}
		if to.After(from) {
			out.elapsed -= to.Sub(from)
		}
	}
	for _, s := range l.samples {
		if !in(l.began.Add(s.at - s.lat)) {
			out.samples = append(out.samples, s)
		}
	}
	if len(out.samples) < minClean {
		return l
	}
	return out
}
