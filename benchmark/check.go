package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"

	"gpm"
	"gpm/client"
	"gpm/internal/difftest"
	"gpm/internal/gio"
)

// answer is the reference answer to one distinct query.
type answer struct {
	// sum is, per graph state, the checksum of the relation a relation
	// query must return (one entry for workloads without updates).
	sum []uint64
	// pairs is the size of that relation in the base state.
	pairs int
	// count and embSum describe the embedding set of an iso query.
	count  int64
	embSum uint64
}

// watchAnswer is what a watch session must hold in one graph state.
type watchAnswer struct {
	pairs int
	sum   uint64
}

// refs are the reference answers to a workload's inputs, computed by a
// path that shares nothing with the daemon's serving path: a gpm.Engine
// bound per graph state with one worker, no server and no cache, under a
// distance oracle of a different kind than the daemon resolves to
// (matrix where the daemon builds PLL, BFS where it builds the matrix)
// and, for enumeration, the unplanned search.
type refs struct {
	ans   []answer
	watch [][4]watchAnswer // [state][semantics]
}

// referenceEngine binds g the way the reference path queries it: one
// worker, and an oracle of another kind than gpmd's auto choice for a
// graph of this size (PLL past 4096 nodes, else the matrix).
func referenceEngine(g *gpm.Graph) *gpm.Engine {
	kind := gpm.OracleBFS
	if g.N() > 4096 {
		kind = gpm.OracleMatrix
	}
	return gpm.NewEngine(g, gpm.WithOracle(kind), gpm.WithWorkers(1))
}

// relSum folds a relation and its ok bit into one checksum.
func relSum(rows [][]int32, ok bool) uint64 {
	s := difftest.Checksum(rows)
	if ok {
		s ^= 0x9e3779b97f4a7c15
	}
	return s
}

func countPairs(rows [][]int32) int {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	return n
}

// embSum is an order-independent checksum of an embedding set.
func embSum(embs [][]int32) uint64 {
	var sum uint64
	for _, e := range embs {
		h := fnv.New64a()
		var b [4]byte
		for _, x := range e {
			b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			h.Write(b[:])
		}
		sum += h.Sum64()
	}
	return sum
}

func mustPattern(text string) *gpm.Pattern {
	p, err := gio.ReadPattern(strings.NewReader(text))
	if err != nil {
		panic(fmt.Sprintf("benchmark: generated pattern does not parse: %v\n%s", err, text))
	}
	return p
}

// computeRefs answers every distinct query of in on every graph state
// the workload can reach, then fills in the /enumerate budgets, which are
// the exact embedding counts: the daemon must report such an enumeration
// complete.
func computeRefs(in *inputs, stateful bool) (*refs, error) {
	states := 1
	if stateful {
		states += len(in.toggles)
	}
	rf := &refs{ans: make([]answer, len(in.refQuery)), watch: make([][4]watchAnswer, states)}
	for i := range rf.ans {
		rf.ans[i].sum = make([]uint64, states)
	}
	ctx := context.Background()
	for s := 0; s < states; s++ {
		eng := referenceEngine(in.stateGraph(s))
		relation := func(sem, text string) ([][]int32, bool, error) {
			rs, err := gpm.ParseRelSemantics(sem)
			if err != nil {
				return nil, false, err
			}
			res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: rs, Pattern: mustPattern(text)})
			if err != nil {
				return nil, false, fmt.Errorf("reference %s: %v", sem, err)
			}
			return res.Relation, res.OK, nil
		}
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			fail error
			next = make(chan int)
		)
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					q := in.refQuery[i]
					var err error
					if q.kind == "iso" {
						if s == 0 { // iso workloads have no updates
							var res *gpm.EnumerationResult
							res, err = eng.Enumerate(ctx, mustPattern(q.text), gpm.IsoOptions{NoPlan: true})
							if err == nil {
								rf.ans[i].count, rf.ans[i].embSum = int64(len(res.Embeddings)), embSum(res.Embeddings)
							}
						}
					} else {
						var rows [][]int32
						var ok bool
						rows, ok, err = relation(q.kind, q.text)
						rf.ans[i].sum[s] = relSum(rows, ok)
						if s == 0 {
							rf.ans[i].pairs = countPairs(rows)
						}
					}
					if err != nil {
						mu.Lock()
						fail = err
						mu.Unlock()
					}
				}
			}()
		}
		for i := range in.refQuery {
			next <- i
		}
		close(next)
		wg.Wait()
		if fail != nil {
			return nil, fail
		}
		for k, sem := range semantics {
			rows, ok, err := relation(sem, in.watch[k])
			if err != nil {
				return nil, err
			}
			rf.watch[s][k] = watchAnswer{pairs: countPairs(rows), sum: relSum(rows, ok)}
		}
	}
	for i := range in.ops {
		if o := &in.ops[i]; o.kind == "enumerate" {
			o.body = queryBody(in.refQuery[o.ref].text, int(rf.ans[o.ref].count))
		}
	}
	return rf, nil
}

// prepare generates a workload's inputs and their reference answers;
// stateful workloads get answers for every graph state their update
// stream reaches.
func prepare(sp spec, seed int64, seconds float64, stateful bool) (*inputs, *refs, error) {
	in, err := genInputs(sp, seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	rf, err := computeRefs(in, stateful)
	if err != nil {
		return nil, nil, err
	}
	in.sha256 = in.digest()
	return in, rf, nil
}

// check verifies one 200 response to o against the reference and returns
// a relation response's stats.cache marker. states lists the graph states
// the daemon may have answered in (reads beside writes cannot know which
// side of a concurrent batch they landed on).
func (rf *refs) check(o *op, body []byte, states []int) (marker string, err error) {
	want := rf.ans[o.ref]
	switch o.kind {
	case "count":
		var c client.Count
		if err := json.Unmarshal(body, &c); err != nil {
			return "", err
		}
		if c.Count != want.count || !c.Complete {
			return "", fmt.Errorf("/count = %d complete=%v, reference %d", c.Count, c.Complete, want.count)
		}
		return "", nil
	case "enumerate":
		var e client.Enumeration
		if err := json.Unmarshal(body, &e); err != nil {
			return "", err
		}
		if got := embSum(e.Embeddings); int64(len(e.Embeddings)) != want.count || !e.Complete || got != want.embSum {
			return "", fmt.Errorf("/enumerate = %d embeddings (sum %016x) complete=%v, reference %d (sum %016x)",
				len(e.Embeddings), got, e.Complete, want.count, want.embSum)
		}
		return "", nil
	}
	var rel client.Relation
	if err := json.Unmarshal(body, &rel); err != nil {
		return "", err
	}
	got := relSum(rel.Matches, rel.OK)
	marker = rel.Stats.Cache
	if rel.Graph != graphName || rel.Semantics != o.kind || rel.Pairs != countPairs(rel.Matches) {
		return marker, fmt.Errorf("%s response header inconsistent: graph %q semantics %q pairs %d for %d rows' pairs",
			o.kind, rel.Graph, rel.Semantics, rel.Pairs, countPairs(rel.Matches))
	}
	for _, s := range states {
		if got == want.sum[s] {
			return marker, nil
		}
	}
	return marker, fmt.Errorf("%s relation checksum %016x matches no reference for states %v", o.kind, got, states)
}

// checkWatch verifies a watch session's state against the reference for
// graph state s.
func (rf *refs) checkWatch(ws *client.WatchState, sem, s int) error {
	want := rf.watch[s][sem]
	if got := relSum(ws.Matches, ws.OK); got != want.sum || ws.Pairs != want.pairs {
		return fmt.Errorf("watch %d (%s) in state %d: %d pairs sum %016x, reference %d pairs sum %016x",
			ws.ID, semantics[sem], s, ws.Pairs, got, want.pairs, want.sum)
	}
	return nil
}
