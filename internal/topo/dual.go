package topo

import (
	"context"
	"fmt"

	"gpm/internal/cancel"
	"gpm/internal/graph"
	"gpm/internal/pattern"
)

// cancelPollInterval matches the matching core's amortised cancellation
// polling rate.
const cancelPollInterval = 4096

// removal is one (pattern node, data node) pair queued for deletion.
type removal struct {
	u int32
	x int32
}

// DualSim computes the maximum dual simulation of p in f (Ma et al.,
// §3.1): the greatest relation S such that for every (u, x) ∈ S, every
// pattern edge (u, u′) has a data edge (x, y) with (u′, y) ∈ S — the
// child constraint of plain simulation — and every pattern edge (u″, u)
// has a data edge (z, x) with (u″, z) ∈ S — the parent constraint dual
// simulation adds. The returned relation lists, per pattern node, the
// sorted data nodes that dual-simulate it; ok reports whether every
// pattern node kept at least one match. Patterns must have all edge
// bounds equal to 1.
//
// The fixpoint is the standard counter/worklist scheme run backward from
// both edge directions: per pattern edge, fwd[x] counts x's surviving
// out-witnesses and back[y] counts y's surviving in-witnesses; a pair is
// removed exactly when one of its counters reaches zero, and each
// removal decrements the counters of its graph neighbors. Candidate
// filtering and counter seeding shard across opts.Workers; the cascade
// itself is sequential, and the greatest fixpoint is unique, so every
// worker count returns bit-identical relations.
func DualSim(ctx context.Context, p *pattern.Pattern, f *graph.Frozen, opts Options) (rel [][]int32, ok bool, err error) {
	if err := checkPattern(p); err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	sim, err := dualFixpoint(ctx, p, f, opts)
	if err != nil {
		return nil, false, err
	}
	rel, ok = collect(sim)
	return rel, ok, nil
}

// dualFixpoint runs the dual-simulation fixpoint and returns the final
// membership bitmaps.
func dualFixpoint(ctx context.Context, p *pattern.Pattern, f *graph.Frozen, opts Options) ([][]bool, error) {
	np, n := p.N(), f.N()
	workers := opts.workers()
	pollers := make([]cancel.Poller, workers)
	for w := range pollers {
		pollers[w] = cancel.Every(ctx, cancelPollInterval)
	}

	// Phase 1: candidate filtering. With a seed, only the seeded nodes are
	// probed (sequentially — seeds are small by construction); otherwise
	// one task per pattern node selects through the snapshot's attribute
	// indexes (pattern.Candidates).
	sim := make([][]bool, np)
	for u := 0; u < np; u++ {
		sim[u] = make([]bool, n)
	}
	if opts.Seed != nil {
		if len(opts.Seed) != np {
			return nil, fmt.Errorf("topo: seed has %d rows for a %d-node pattern", len(opts.Seed), np)
		}
		poll := cancel.Every(ctx, cancelPollInterval)
		for u := 0; u < np; u++ {
			pred := p.Pred(u)
			row := sim[u]
			for _, x := range opts.Seed[u] {
				if err := poll.Err(); err != nil {
					return nil, err
				}
				if x < 0 || int(x) >= n || row[x] {
					continue
				}
				row[x] = pred.Match(f.Attr(int(x)))
			}
		}
	} else {
		err := RunShards(workers, np, func(w, u int) error {
			cands, err := pattern.Candidates(f, p.Pred(u), false, &pollers[w])
			for _, x := range cands {
				sim[u][x] = true
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: counter seeding, sharded over (pattern edge, data-node
	// span). fwd[eid][x] counts out-witnesses of candidate x of the
	// edge's source; back[eid][y] counts in-witnesses of candidate y of
	// its target (skipped in ChildOnly mode, which collapses dual
	// simulation to plain simulation). Rows are per edge and spans
	// disjoint, so writes never collide; sim is read-only in this phase.
	ne := p.EdgeCount()
	fwd := make([][]int32, ne)
	back := make([][]int32, ne)
	type cntTask struct {
		eid      int
		lo, hi   int
		backward bool
	}
	var cntTasks []cntTask
	degUnit := 1
	if n > 0 {
		degUnit += f.M() / n
	}
	for eid := 0; eid < ne; eid++ {
		fwd[eid] = make([]int32, n)
		for _, s := range shardSpans(n, workers, degUnit) {
			cntTasks = append(cntTasks, cntTask{eid, s[0], s[1], false})
		}
		if !opts.ChildOnly {
			back[eid] = make([]int32, n)
			for _, s := range shardSpans(n, workers, degUnit) {
				cntTasks = append(cntTasks, cntTask{eid, s[0], s[1], true})
			}
		}
	}
	seeds := make([][]removal, len(cntTasks))
	err := RunShards(workers, len(cntTasks), func(w, t int) error {
		task := cntTasks[t]
		e := p.EdgeAt(task.eid)
		var local []removal
		if task.backward {
			c := back[task.eid]
			for y := task.lo; y < task.hi; y++ {
				if err := pollers[w].Err(); err != nil {
					return err
				}
				if !sim[e.To][y] {
					continue
				}
				for _, z := range f.In(y) {
					if sim[e.From][z] && colorOK(f, int(z), y, e.Color) {
						c[y]++
					}
				}
				if c[y] == 0 {
					local = append(local, removal{int32(e.To), int32(y)})
				}
			}
		} else {
			c := fwd[task.eid]
			for x := task.lo; x < task.hi; x++ {
				if err := pollers[w].Err(); err != nil {
					return err
				}
				if !sim[e.From][x] {
					continue
				}
				for _, y := range f.Out(x) {
					if sim[e.To][y] && colorOK(f, x, int(y), e.Color) {
						c[x]++
					}
				}
				if c[x] == 0 {
					local = append(local, removal{int32(e.From), int32(x)})
				}
			}
		}
		seeds[t] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	var work []removal
	for _, s := range seeds {
		work = append(work, s...)
	}

	// Refinement cascade: removing (u, x) can zero the fwd counters of
	// x's in-neighbors (for pattern edges entering u) and the back
	// counters of x's out-neighbors (for pattern edges leaving u).
	poll := cancel.Every(ctx, cancelPollInterval)
	for len(work) > 0 {
		rm := work[len(work)-1]
		work = work[:len(work)-1]
		u, x := int(rm.u), int(rm.x)
		if !sim[u][x] {
			continue
		}
		sim[u][x] = false
		for _, eid := range p.In(u) {
			e := p.EdgeAt(int(eid))
			c := fwd[eid]
			for _, z := range f.In(x) {
				if err := poll.Err(); err != nil {
					return nil, err
				}
				if !sim[e.From][z] || !colorOK(f, int(z), x, e.Color) {
					continue
				}
				c[z]--
				if c[z] == 0 {
					work = append(work, removal{int32(e.From), z})
				}
			}
		}
		if opts.ChildOnly {
			continue
		}
		for _, eid := range p.Out(u) {
			e := p.EdgeAt(int(eid))
			c := back[eid]
			for _, y := range f.Out(x) {
				if err := poll.Err(); err != nil {
					return nil, err
				}
				if !sim[e.To][y] || !colorOK(f, x, int(y), e.Color) {
					continue
				}
				c[y]--
				if c[y] == 0 {
					work = append(work, removal{int32(e.To), y})
				}
			}
		}
	}
	return sim, nil
}

// IsDualSim verifies that rel is a dual simulation of p in f: every pair
// satisfies its predicate, every pattern edge leaving its pattern node
// has a successor witness in rel, and every pattern edge entering it has
// a predecessor witness. It does not check maximality; the fuzz target
// and tests use it as an independent oracle for DualSim's output.
func IsDualSim(p *pattern.Pattern, f *graph.Frozen, rel [][]int32) bool {
	if len(rel) != p.N() {
		return false
	}
	n := f.N()
	in := make([][]bool, p.N())
	for u := range in {
		in[u] = make([]bool, n)
		for _, x := range rel[u] {
			if int(x) >= n || x < 0 {
				return false
			}
			in[u][x] = true
		}
	}
	for u := 0; u < p.N(); u++ {
		for _, x := range rel[u] {
			if !p.Pred(u).Match(f.Attr(int(x))) {
				return false
			}
			for _, eid := range p.Out(u) {
				e := p.EdgeAt(int(eid))
				found := false
				for _, y := range f.Out(int(x)) {
					if in[e.To][y] && colorOK(f, int(x), int(y), e.Color) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			for _, eid := range p.In(u) {
				e := p.EdgeAt(int(eid))
				found := false
				for _, z := range f.In(int(x)) {
					if in[e.From][z] && colorOK(f, int(z), int(x), e.Color) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
	}
	return true
}
