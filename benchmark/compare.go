package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// runSet is what -all -out writes and -compare reads: every run of every
// workload, and the settings two sets must share to be comparable.
type runSet struct {
	Meta map[string]string `json:"meta"`
	Runs []*report         `json:"runs"`
}

// print writes a run's numbers, one per line, by name and with units.
func (rep *report) print(w io.Writer) {
	kind := "end-to-end"
	if rep.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", rep.Workload, rep.Seed, kind)
	fmt.Fprintf(w, "  inputs_sha256       %s\n", rep.InputsSHA256)
	fmt.Fprintf(w, "  reference_checksum  %s\n", rep.ReferenceChecksum)
	line := func(name string, m metric, note string) {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", name, m.Value, m.Unit, note)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		note := ""
		if n, ok := rep.Samples[name]; ok {
			note = fmt.Sprintf(" (%d samples)", n)
		}
		line(name, rep.Metrics[name], note)
	}
	for _, name := range sortedKeys(rep.Info) {
		note := " (not gated)"
		if n, ok := rep.Samples[name]; ok {
			note = fmt.Sprintf(" (%d samples, not gated)", n)
		}
		line(name, rep.Info[name], note)
	}
	for _, name := range sortedKeys(rep.Counts) {
		fmt.Fprintf(w, "  %-34s %14d count (repeats exactly)\n", name, rep.Counts[name])
	}
	share := 0.0
	if rep.Attempted > 0 {
		share = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  failed_share        %.6f (%d of %d)\n", share, rep.Failed, rep.Attempted)
	if rep.FirstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", rep.FirstFailure)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runAll runs every workload: `runs` end-to-end runs on consecutive
// seeds, then one traced run on the first seed.
func runAll(ctx context.Context, e *env, seed int64, seconds float64, runs int) (*runSet, error) {
	set := &runSet{Meta: map[string]string{
		"seed": fmt.Sprint(seed), "runs": fmt.Sprint(runs), "seconds": fmt.Sprint(seconds),
		"nproc": fmt.Sprint(runtime.NumCPU()), "go": runtime.Version(),
	}}
	for _, w := range workloads {
		sp := w.full
		if e.smoke {
			sp = w.smoke
		}
		set.Meta["sizes."+w.name] = fmt.Sprintf("%+v", sp)
		set.Meta["gpmd."+w.name] = w.flagSummary()
		for i := 0; i <= runs; i++ {
			traced := i == runs
			s := seed + int64(i)
			if traced {
				s = seed
			}
			rep, err := runOnce(ctx, e, w, s, seconds, traced)
			if err != nil {
				return set, fmt.Errorf("%s seed %d: %v", w.name, s, err)
			}
			rep.print(os.Stdout)
			set.Runs = append(set.Runs, rep)
		}
	}
	return set, nil
}

func (set *runSet) correct() bool {
	for _, rep := range set.Runs {
		if !rep.Correct {
			return false
		}
	}
	return true
}

func (set *runSet) write(path string) error {
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &runSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return set, nil
}

// declared is the part of BENCHMARK.json this program reads back: the
// metrics it has to report, and the bound each end-to-end metric may
// worsen by.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &declared{}
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return d, nil
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median; without a
// median to take a share of, it is infinite.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return math.Inf(1)
}

// compareFiles applies BENCHMARK.json's per-metric bounds to two run
// sets, a the baseline and b the candidate, row by row (workload x
// end-to-end metric), and checks that inputs, reference checksums and
// program counts agree exactly. It reports whether any row is worse.
func compareFiles(w io.Writer, aPath, bPath, benchPath string) (worse bool, err error) {
	a, err := readRunSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(bPath)
	if err != nil {
		return false, err
	}
	for _, k := range sortedKeys(a.Meta) {
		if a.Meta[k] != b.Meta[k] {
			return false, fmt.Errorf("run sets are not comparable: %s is %q in %s and %q in %s", k, a.Meta[k], aPath, b.Meta[k], bPath)
		}
	}
	if len(a.Meta) != len(b.Meta) {
		return false, fmt.Errorf("run sets are not comparable: different settings recorded")
	}
	bench, err := readDeclared(benchPath)
	if err != nil {
		return false, err
	}

	values := func(set *runSet, workload, name string) []float64 {
		var v []float64
		for _, rep := range set.Runs {
			if m, ok := rep.Metrics[name]; ok && rep.Workload == workload && !rep.Trace {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, wl.name, m.Name), values(b, wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing from a run set", wl.name, m.Name)
			}
			ma, mb := median(va), median(vb)
			change := 0.0 // positive: worse
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
			}
			if m.Better == "higher" {
				change = -change
			}
			sp := max(spread(va), spread(vb))
			verdict := "unchanged"
			switch {
			case ma == 0: // no baseline to take a share of
				verdict = "unresolved"
			case change > m.Bound:
				verdict, worse = "WORSE", true
			case sp > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, m.Name, ma, mb, 100*change, 100*sp, 100*m.Bound, verdict)
		}
	}

	// Exact rows: same seed, same workload, same kind of run.
	key := func(rep *report) string { return fmt.Sprintf("%s/%d/%v", rep.Workload, rep.Seed, rep.Trace) }
	byKey := map[string]*report{}
	for _, rep := range a.Runs {
		byKey[key(rep)] = rep
	}
	for _, rb := range b.Runs {
		ra := byKey[key(rb)]
		if ra == nil {
			continue
		}
		if ra.InputsSHA256 != rb.InputsSHA256 || ra.ReferenceChecksum != rb.ReferenceChecksum {
			fmt.Fprintf(w, "%s: inputs %s/%s checksum %s/%s  WORSE (must agree exactly)\n",
				key(rb), ra.InputsSHA256[:12], rb.InputsSHA256[:12], ra.ReferenceChecksum, rb.ReferenceChecksum)
			worse = true
		}
		for _, name := range sortedKeys(ra.Counts) {
			if ra.Counts[name] != rb.Counts[name] {
				fmt.Fprintf(w, "%s: %s %d/%d  WORSE (must agree exactly)\n", key(rb), name, ra.Counts[name], rb.Counts[name])
				worse = true
			}
		}
		if !rb.Correct {
			fmt.Fprintf(w, "%s: %d of %d operations failed  WORSE\n", key(rb), rb.Failed, rb.Attempted)
			worse = true
		}
	}
	return worse, nil
}
