package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/datasets"
	"gpm/internal/generator"
	"gpm/internal/gio"
	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

// semantics are the four relation-valued semantics, in the order every
// per-semantics table of this program uses.
var semantics = [4]string{"match", "sim", "dual", "strong"}

var semPath = map[string]string{
	"match": "/match", "sim": "/simulate", "dual": "/dual", "strong": "/strong",
}

// graphName is the name the daemon binds the generated graph under.
const graphName = "g"

// spec sizes one workload's inputs. Everything the daemon receives is a
// function of (spec, seed, seconds).
type spec struct {
	graph   string // "youtube": the PVLDB stand-in; "cliques": symmetrised power law + planted 6-cliques
	nodes   int
	relBase [4]int // base relation patterns per semantics (match, sim, dual, strong)
	window  int64  // half-width of each node's numeric predicate window; sets candidate-set size
	isoPats int    // iso-biased generator patterns beside the four plan shapes
	zipf    bool   // op order follows item popularity instead of a shuffled round robin
	// zipfQ is the q of the popularity law P(rank k) ~ (q+k)^-1.1. With
	// q = 1 (plain Zipf) the most popular of 400 items draws a fifth of all
	// requests, and whichever pattern the seed put there sets the run's
	// byte rate and tail; q = 4 keeps the skew (a tenth of the items draws
	// half the requests) without the single head.
	zipfQ   float64
	rate    float64 // open-loop arrival rate in req/s; 0 means closed loop
	toggles int     // update delta sets; the graph moves between the base state and base+delta[k]
}

// variant indexes the three texts of a relation item.
const (
	vOriginal  = iota // the pattern as built
	vRespelled        // atoms and edge lines reordered: a memo miss that hits the exact digest
	vRefined          // every predicate window halved: a different pattern the original contains
	nVariants
)

// relItem is one base pattern under one semantics with its three texts.
type relItem struct {
	sem   string
	built builtPattern
	text  [nVariants]string
}

// op is one request of a workload's op list.
type op struct {
	kind string // semantics name, "count" or "enumerate"
	path string
	body []byte
	ref  int // index into the reference table: ops with equal ref have equal answers
}

// inputs is everything generated from the seed.
type inputs struct {
	spec      spec
	graphText []byte
	g         *graph.Graph // graphText parsed back: exactly what the daemon binds
	rel       []relItem
	iso       []string // .pattern texts for /count and /enumerate
	ops       []op
	refQuery  []refQuery // distinct queries behind ops[i].ref
	order     []int32    // op indices in issue order
	warm      []int32    // ops set-up sends before timing starts
	arrivals  []time.Duration
	watch     [4]string // one watch pattern per semantics
	toggles   [][]client.UpdateOp
	noop      []client.UpdateOp // insert-then-delete of edges absent in every state
	sha256    string
}

// refQuery is one distinct (endpoint, pattern) whose answer the
// reference path computes.
type refQuery struct {
	kind string
	text string
}

// schema names the categorical and the numeric attribute predicates are
// built from, per graph kind.
type schema struct {
	cat, num string
}

var schemas = map[string]schema{
	"youtube": {"category", "age"},
	"cliques": {"label", "w"},
}

// datasetSeed generates every data graph. The graphs are a fixed dataset,
// as the paper's were; --seed draws the traffic against them. (Drawn from
// --seed too, the graph alone moved a workload's cost by 10 % from one
// seed to the next.)
const datasetSeed = 20100913 // PVLDB 3(1), September 2010

// genGraph builds the data graph of a spec.
func genGraph(sp spec) *graph.Graph {
	const seed = datasetSeed
	switch sp.graph {
	case "youtube":
		g, err := datasets.Scaled("youtube", seed, sp.nodes, 4*sp.nodes)
		if err != nil {
			panic(err) // static name
		}
		return g
	case "cliques":
		// The -exp plan graph: undirected shapes need both directions, and
		// planted cliques give the clique shapes embeddings to find.
		g := generator.Graph(generator.GraphConfig{
			Nodes: sp.nodes, Edges: 3 * sp.nodes, Attrs: 4, Model: generator.PowerLaw, Seed: seed,
		})
		for _, e := range g.EdgeList() {
			g.AddEdge(int(e[1]), int(e[0]))
		}
		for c := 0; c < 3; c++ {
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					if i != j {
						g.AddEdge(c*6+i, c*6+j)
					}
				}
			}
		}
		return g
	}
	panic("benchmark: unknown graph kind " + sp.graph)
}

// reaches reports whether a nonempty path of at most bound edges leads
// from u to v (bound pattern.Unbounded: any length).
func reaches(g *graph.Graph, u, v, bound int) bool {
	seen := map[int32]bool{}
	frontier := []int32{int32(u)}
	for depth := 0; len(frontier) > 0 && (bound == pattern.Unbounded || depth < bound); depth++ {
		var next []int32
		for _, x := range frontier {
			for _, y := range g.Out(int(x)) {
				if int(y) == v {
					return true
				}
				if !seen[y] {
					seen[y] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return false
}

// builtPattern is a pattern with the data nodes its predicates were
// derived from; the anchors are a match by construction.
type builtPattern struct {
	p       *pattern.Pattern
	anchors []int
	sc      schema
	window  int64
}

// predAround is the predicate of a node anchored at data node x: its
// category, and its numeric attribute within w of x's value.
func predAround(g *graph.Graph, sc schema, x int, w int64) pattern.Predicate {
	a := g.Attr(x)
	n, _ := a[sc.num].AsInt()
	return pattern.Predicate{
		{Attr: sc.cat, Op: value.OpEQ, Val: a[sc.cat]},
		{Attr: sc.num, Op: value.OpGE, Val: value.Int(n - w)},
		{Attr: sc.num, Op: value.OpLE, Val: value.Int(n + w)},
	}
}

// matchBounds draws /match edge bounds: 1-3 and "*".
func matchBounds(r *rand.Rand) int {
	switch x := r.Intn(100); {
	case x < 35:
		return 1
	case x < 65:
		return 2
	case x < 90:
		return 3
	}
	return pattern.Unbounded
}

func boundOne(*rand.Rand) int { return 1 }

// buildPattern traces a pattern along real paths of g, like the paper's
// appendix generator, but keeps every edge witnessed by the anchors
// (extra edges are only added where the anchors are within the bound),
// so the relation is never empty under any of the four semantics. With
// dag, extra edges only run from older to newer nodes.
func buildPattern(r *rand.Rand, g *graph.Graph, sc schema, window int64, nodes, edges int, bound func(*rand.Rand) int, dag bool) (builtPattern, bool) {
	p := pattern.New()
	first := r.Intn(g.N())
	for tries := 0; tries < 50 && g.OutDegree(first) == 0; tries++ {
		first = r.Intn(g.N())
	}
	anchors := []int{first}
	p.AddNode(predAround(g, sc, first, window))
	for len(anchors) < nodes {
		placed := false
		for tries := 0; tries < 40 && !placed; tries++ {
			from := r.Intn(len(anchors))
			b := bound(r)
			steps := b
			if b == pattern.Unbounded {
				steps = 1 + r.Intn(3)
			}
			cur := anchors[from]
			for s := 0; s < steps && g.OutDegree(cur) > 0; s++ {
				outs := g.Out(cur)
				cur = int(outs[r.Intn(len(outs))])
			}
			dup := false
			for _, a := range anchors {
				dup = dup || a == cur
			}
			if dup {
				continue
			}
			u := p.AddNode(predAround(g, sc, cur, window))
			p.MustAddEdge(from, u, b)
			anchors = append(anchors, cur)
			placed = true
		}
		if !placed {
			return builtPattern{}, false
		}
	}
	for tries := 0; tries < 20*edges && p.EdgeCount() < edges; tries++ {
		a, b := r.Intn(nodes), r.Intn(nodes)
		if a == b || (dag && a > b) || p.HasEdge(a, b) {
			continue
		}
		if k := bound(r); reaches(g, anchors[a], anchors[b], k) {
			p.MustAddEdge(a, b, k)
		}
	}
	return builtPattern{p: p, anchors: anchors, sc: sc, window: window}, true
}

func patternText(p *pattern.Pattern) string {
	var buf bytes.Buffer
	if err := gio.WritePattern(&buf, p); err != nil {
		panic(err) // bytes.Buffer does not fail
	}
	return buf.String()
}

// respell writes p differently without renaming its nodes: atoms and
// edge lines reordered, so the text is new to the daemon's memo while the
// canonical form, and the meaning of each relation row, stay the same.
// (Renamed nodes are left out on purpose: on an exact-digest hit gpmd
// returns the rows in the cached spelling's node numbering, so a renamed
// isomorph is answered with another node's rows. README.md has the
// details; this benchmark only runs operations that succeed.)
func respell(r *rand.Rand, p *pattern.Pattern) string {
	for {
		q := pattern.New()
		for u := 0; u < p.N(); u++ {
			pred := append(pattern.Predicate(nil), p.Pred(u)...)
			r.Shuffle(len(pred), func(i, j int) { pred[i], pred[j] = pred[j], pred[i] })
			q.AddNode(pred)
		}
		es := p.Edges()
		r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		for _, e := range es {
			q.MustAddEdge(e.From, e.To, e.Bound)
		}
		if text := patternText(q); text != patternText(p) {
			return text
		}
	}
}

// refined narrows every node's window to half: each refined predicate
// implies the original's and the edges are unchanged, so the original
// contains it. n > 0 narrows one node by a little more, differently for
// every n, which makes each refinement of a pattern a distinct pattern.
func refined(g *graph.Graph, b builtPattern, n int) *pattern.Pattern {
	q := b.p.Clone()
	for u, x := range b.anchors {
		w := b.window / 2
		if n > 0 && u == n%len(b.anchors) {
			w = max(w-1-int64(n/len(b.anchors)), 0)
		}
		q.SetPred(u, predAround(g, b.sc, x, w))
	}
	return q
}

// planShapes are the -exp plan shapes: undirected, so every edge is laid
// in both directions over wildcard nodes.
var planShapes = [][][2]int{
	{{0, 1}, {1, 2}, {0, 2}},                                 // triangle
	{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},         // 4-clique
	{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {1, 4}},         // house
	{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}, // chordal 6-cycle
}

func shapePattern(edges [][2]int) *pattern.Pattern {
	p := pattern.New()
	for _, e := range edges {
		for p.N() <= e[0] || p.N() <= e[1] {
			p.AddNode(nil)
		}
		p.MustAddEdge(e[0], e[1], 1)
		p.MustAddEdge(e[1], e[0], 1)
	}
	return p
}

func queryBody(text string, maxEmbeddings int) []byte {
	b, err := json.Marshal(client.QueryRequest{Graph: graphName, Pattern: text, MaxEmbeddings: maxEmbeddings})
	if err != nil {
		panic(err) // plain struct
	}
	return b
}

// The band of embedding counts a generator pattern of the enumerate
// workload must fall in.
const (
	isoMinEmbeddings = 300
	isoMaxEmbeddings = 3000
)

// genInputs generates a workload's inputs. seconds sizes the op order of
// the open-loop workload (rate x seconds arrivals); closed loops cycle
// through a fixed order until their time is up.
func genInputs(sp spec, seed int64, seconds float64) (*inputs, error) {
	in := &inputs{spec: sp}
	var gbuf bytes.Buffer
	if err := gio.WriteGraph(&gbuf, genGraph(sp)); err != nil {
		return nil, err
	}
	in.graphText = gbuf.Bytes()
	g, err := gio.ReadGraph(bytes.NewReader(in.graphText))
	if err != nil {
		return nil, fmt.Errorf("generated graph does not parse: %v", err)
	}
	in.g = g
	sc := schemas[sp.graph]
	r := rand.New(rand.NewSource(seed ^ 0x5bd1e995))

	// Relation items: pairwise canonically distinct across every text that
	// is meant to be a different pattern (originals and refinements).
	seen := map[string]bool{}
	for s, sem := range semantics {
		bound := boundOne
		if sem == "match" {
			bound = matchBounds
		}
		for n := 0; n < sp.relBase[s]; {
			b, ok := buildPattern(r, g, sc, sp.window, 4, 5, bound, false)
			if !ok {
				continue
			}
			ref := refined(g, b, 0)
			c0, err0 := b.p.Canonical()
			c1, err1 := ref.Canonical()
			if err0 != nil || err1 != nil || seen[sem+c0.Text] || seen[sem+c1.Text] || c0.Text == c1.Text {
				continue
			}
			seen[sem+c0.Text], seen[sem+c1.Text] = true, true
			in.rel = append(in.rel, relItem{sem: sem, built: b, text: [nVariants]string{
				patternText(b.p), respell(r, b.p), patternText(ref),
			}})
			n++
		}
	}

	// Iso patterns: iso-biased generator patterns, short ones with a
	// second predicate atom on the stand-in. On the clique graph, built for
	// them, the plan shapes come first (on the stand-in the wildcard shapes
	// take seconds apiece), and the generator patterns are bigger, carry
	// the label only, which leaves the search real work, and are kept only
	// with a moderate number of embeddings: label-only predicates leave
	// anything from none to a hundred thousand, and a handful of the latter
	// would decide a run's throughput, byte rate and memory by themselves.
	cfg := generator.PatternConfig{Nodes: 4, Edges: 5, K: 1, PredAttrs: 2, IsoBias: true}
	keep := func(*pattern.Pattern) bool { return true }
	if sp.graph == "cliques" {
		for _, sh := range planShapes {
			in.iso = append(in.iso, patternText(shapePattern(sh)))
		}
		cfg.Nodes, cfg.Edges, cfg.PredAttrs = 6, 8, 1
		counter := gpm.NewEngine(g)
		keep = func(p *pattern.Pattern) bool {
			c, err := counter.CountEmbeddings(context.Background(), p, gpm.IsoOptions{MaxSteps: 100_000})
			return err == nil && c.Complete && c.Count >= isoMinEmbeddings && c.Count <= isoMaxEmbeddings
		}
	}
	for want := len(in.iso) + sp.isoPats; len(in.iso) < want; {
		cfg.Seed = r.Int63()
		if p := generator.Pattern(cfg, g); keep(p) {
			in.iso = append(in.iso, patternText(p))
		}
	}

	// Watch patterns and update deltas.
	for s, sem := range semantics {
		bound := boundOne
		if sem == "match" {
			bound = matchBounds
		}
		for {
			if b, ok := buildPattern(r, g, sc, sp.window, 4, 5, bound, true); ok {
				in.watch[s] = patternText(b.p)
				break
			}
		}
	}
	// Update deltas: 8 inserts and 8 deletes each. Half of either kind is
	// aimed at the watch sessions - node pairs that are candidates for the
	// two ends of a watched pattern edge - so the maintained relations
	// really change; the rest falls anywhere in the graph.
	near, far := watchedPairs(g, in.watch)
	r.Shuffle(len(near), func(i, j int) { near[i], near[j] = near[j], near[i] })
	r.Shuffle(len(far), func(i, j int) { far[i], far[j] = far[j], far[i] })
	taken := map[[2]int]bool{}
	for k := 0; k < sp.toggles; k++ {
		var delta []client.UpdateOp
		var dels, inss int
		used := map[[2]int]bool{}
		add := func(op string, u, v int) {
			e := [2]int{u, v}
			if used[e] {
				return
			}
			used[e] = true
			if op == "+" {
				taken[e] = true
				inss++
			} else {
				dels++
			}
			delta = append(delta, client.UpdateOp{Op: op, U: u, V: v})
		}
		for ; dels < 4 && len(near) > 0; near = near[1:] {
			add("-", near[0][0], near[0][1])
		}
		for ; inss < 4 && len(far) > 0; far = far[1:] {
			add("+", far[0][0], far[0][1])
		}
		for dels < 8 || inss < 8 {
			u, v := r.Intn(g.N()), r.Intn(g.N())
			switch has := g.HasEdge(u, v); {
			case u == v:
			case has && dels < 8:
				add("-", u, v)
			case !has && inss < 8:
				add("+", u, v)
			}
		}
		r.Shuffle(len(delta), func(i, j int) { delta[i], delta[j] = delta[j], delta[i] })
		in.toggles = append(in.toggles, delta)
	}
	for len(in.noop) < 16 && sp.toggles > 0 {
		u, v := r.Intn(g.N()), r.Intn(g.N())
		if u == v || g.HasEdge(u, v) || taken[[2]int{u, v}] {
			continue
		}
		taken[[2]int{u, v}] = true
		in.noop = append(in.noop, client.UpdateOp{Op: "+", U: u, V: v}, client.UpdateOp{Op: "-", U: u, V: v})
	}

	in.buildOps(r, seconds)
	return in, nil
}

// watchedPairs lists the node pairs (x, y) where x satisfies the
// predicate at the tail and y the predicate at the head of some edge of a
// watch pattern: near holds those joined by a data edge, far the rest.
func watchedPairs(g *graph.Graph, watch [4]string) (near, far [][2]int) {
	seen := map[[2]int]bool{}
	for _, text := range watch {
		p := mustPattern(text)
		cand := make([][]int, p.N())
		for u := range cand {
			for x := 0; x < g.N(); x++ {
				if p.Pred(u).Match(g.Attr(x)) {
					cand[u] = append(cand[u], x)
				}
			}
		}
		for _, e := range p.Edges() {
			for _, x := range cand[e.From] {
				for _, y := range cand[e.To] {
					if pair := [2]int{x, y}; x != y && !seen[pair] {
						seen[pair] = true
						if g.HasEdge(x, y) {
							near = append(near, pair)
						} else {
							far = append(far, pair)
						}
					}
				}
			}
		}
	}
	return near, far
}

// buildOps lays out the op list, the issue order and the arrival
// schedule for the spec's load shape.
func (in *inputs) buildOps(r *rand.Rand, seconds float64) {
	refOf := map[refQuery]int{}
	add := func(kind, path, text string, body []byte) {
		q := refQuery{kind: kind, text: text}
		if kind == "count" || kind == "enumerate" {
			q.kind = "iso" // one reference enumeration answers both endpoints
		}
		ref, ok := refOf[q]
		if !ok {
			ref = len(in.refQuery)
			refOf[q] = ref
			in.refQuery = append(in.refQuery, q)
		}
		in.ops = append(in.ops, op{kind: kind, path: path, body: body, ref: ref})
	}
	relOp := func(sem, text string) { add(sem, semPath[sem], text, queryBody(text, 0)) }
	// zipfItems draws n items by popularity: Zipf-Mandelbrot with exponent
	// 1.1 over a seeded rank order of the relation items.
	zipfItems := func(n int) (rank []int, draws []int) {
		rank = in.stratifiedRanks(r)
		z := rand.NewZipf(r, 1.1, in.spec.zipfQ, uint64(len(in.rel)-1))
		for i := 0; i < n; i++ {
			draws = append(draws, rank[z.Uint64()])
		}
		return rank, draws
	}
	sp := in.spec
	switch {
	case sp.graph == "cliques":
		// Alternate /count and budgeted /enumerate per pattern, in a seeded
		// order. The enumerate budget is filled in once the reference knows
		// the count.
		for _, text := range in.iso {
			add("count", "/count", text, queryBody(text, 0))
			add("enumerate", "/enumerate", text, nil)
		}
		in.shuffledOrder(r)
	case sp.zipf && sp.rate > 0:
		// Open loop: every arrival asks for a Zipf-popular item. Most send
		// its original text, which set-up has warmed (a memo hit); some send
		// a spelling the daemon has not seen (memo miss, exact-digest hit);
		// a few send a refinement nobody has asked before (containment hit,
		// then a new cache entry). Fresh texts keep all three paths in
		// steady state instead of in a start-up burst.
		for _, it := range in.rel {
			relOp(it.sem, it.text[vOriginal])
		}
		rank, draws := zipfItems(int(math.Ceil(sp.rate * seconds)))
		for _, item := range rank {
			in.warm = append(in.warm, int32(item))
		}
		// Fresh texts go round the items evenly rather than by popularity, so
		// their mix of semantics is the same for every seed. Strong
		// simulation has no containment path (a refinement of a strong
		// pattern is a cold computation), so only the other three semantics
		// are refined.
		var refinable []int
		for item, it := range in.rel {
			if it.sem != "strong" {
				refinable = append(refinable, item)
			}
		}
		var nRefined, nRespelled int
		for _, item := range draws {
			switch x := r.Intn(100); {
			case x < 2:
				item = refinable[nRefined%len(refinable)]
				nRefined++
				it := &in.rel[item]
				relOp(it.sem, patternText(refined(in.g, it.built, (nRefined-1)/len(refinable)+1)))
				in.order = append(in.order, int32(len(in.ops)-1))
			case x < 7:
				item = nRespelled % len(in.rel)
				nRespelled++
				it := &in.rel[item]
				in.ops = append(in.ops, op{kind: it.sem, path: semPath[it.sem], body: queryBody(respell(r, it.built.p), 0), ref: in.ops[item].ref})
				in.order = append(in.order, int32(len(in.ops)-1))
			default:
				in.order = append(in.order, int32(item))
			}
		}
		// Poisson arrivals at the reference rate.
		var at float64
		for range in.order {
			at += r.ExpFloat64() / sp.rate
			in.arrivals = append(in.arrivals, time.Duration(at*float64(time.Second)))
		}
	case sp.zipf:
		// Closed loop beside a writer: the update stream keeps invalidating
		// the cache, so a fixed pool of three texts per item is enough to
		// keep every path busy. Set-up warms the head of the distribution.
		for _, it := range in.rel {
			relOp(it.sem, it.text[vOriginal])
			in.ops = append(in.ops, op{kind: it.sem, path: semPath[it.sem], body: queryBody(it.text[vRespelled], 0), ref: in.ops[len(in.ops)-1].ref})
			relOp(it.sem, it.text[vRefined])
		}
		rank, draws := zipfItems(orderLen)
		for _, item := range rank[:(len(rank)+3)/4] {
			in.warm = append(in.warm, int32(item*nVariants+vOriginal))
		}
		for _, item := range draws {
			v := vOriginal
			switch x := r.Intn(100); {
			case x >= 85:
				v = vRefined
			case x >= 60:
				v = vRespelled
			}
			in.order = append(in.order, int32(item*nVariants+v))
		}
	default:
		for _, it := range in.rel {
			relOp(it.sem, it.text[vOriginal])
		}
		in.shuffledOrder(r)
	}
}

// stratifiedRanks orders the relation items from most to least popular so
// that every stretch of ranks is a stratified sample of answer sizes: the
// items are shuffled, sorted by the size of their relation, and dealt out
// at a golden-ratio stride starting from the median. Ten ranks draw a third
// of a Zipf workload's requests; dealt at random, whichever patterns the
// seed put there set the run's byte rate and median latency (a fifth up or
// down from seed to seed).
func (in *inputs) stratifiedRanks(r *rand.Rand) []int {
	eng := gpm.NewEngine(in.g, gpm.WithAutoOracle())
	size := make([]int, len(in.rel))
	for i, it := range in.rel {
		sem, _ := gpm.ParseRelSemantics(it.sem)
		res, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: sem, Pattern: it.built.p})
		if err != nil {
			panic(err) // generated pattern on the generated graph
		}
		size[i] = countPairs(res.Relation)
	}
	bySize := r.Perm(len(in.rel))
	sort.SliceStable(bySize, func(a, b int) bool { return size[bySize[a]] < size[bySize[b]] })
	n := len(bySize)
	stride := int(float64(n) * 0.6180339887)
	for gcd(stride, n) != 1 {
		stride++
	}
	rank := make([]int, n)
	for k := range rank {
		rank[k] = bySize[(n/2+k*stride)%n]
	}
	return rank
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// shuffledOrder issues every op once per round in a seeded order. Set-up
// sends the first op of each kind in the op list (not in the order, or
// the seed would decide between a triangle and a chordal 6-cycle as the
// price of set-up): the first /match pays for the lazy oracle build, the
// others for the frozen snapshot.
func (in *inputs) shuffledOrder(r *rand.Rand) {
	seen := map[string]bool{}
	for i, o := range in.ops {
		if !seen[o.kind] {
			seen[o.kind] = true
			in.warm = append(in.warm, int32(i))
		}
	}
	for _, i := range r.Perm(len(in.ops)) {
		in.order = append(in.order, int32(i))
	}
}

// orderLen is the length of a closed-loop Zipf order; the loop wraps
// around if it gets through it.
const orderLen = 1 << 16

// batch returns update batch i of the fixed stream and the graph state
// it leaves behind. States: 0 is the base graph, k+1 is base+toggles[k].
// Effective batches alternately apply and undo one delta, cycling through
// the deltas; every tenth batch inserts and deletes absent edges, a net
// no-op that must not bump the daemon's generation.
func (in *inputs) batch(i int) (ops []client.UpdateOp, state int) {
	effective := i - i/10 // effective batches among [0, i)
	if i%10 == 9 {
		return in.noop, in.stateAfter(effective)
	}
	k := (effective / 2) % len(in.toggles)
	if effective%2 == 0 {
		return in.toggles[k], k + 1
	}
	undo := make([]client.UpdateOp, len(in.toggles[k]))
	for j, o := range in.toggles[k] {
		undo[j] = client.UpdateOp{Op: "+", U: o.U, V: o.V}
		if o.Op == "+" {
			undo[j].Op = "-"
		}
	}
	return undo, 0
}

// stateAfter is the graph state once `effective` effective batches have
// been applied.
func (in *inputs) stateAfter(effective int) int {
	if effective%2 == 0 {
		return 0
	}
	return ((effective-1)/2)%len(in.toggles) + 1
}

// stateGraph materialises graph state s.
func (in *inputs) stateGraph(s int) *graph.Graph {
	g := in.g.Clone()
	if s > 0 {
		for _, o := range in.toggles[s-1] {
			if o.Op == "+" {
				g.AddEdge(o.U, o.V)
			} else {
				g.RemoveEdge(o.U, o.V)
			}
		}
	}
	return g
}

func updateBody(ops []client.UpdateOp) []byte {
	b, err := json.Marshal(client.UpdateRequest{Graph: graphName, Updates: ops})
	if err != nil {
		panic(err) // plain struct
	}
	return b
}

// files renders the inputs as the files written to the run directory:
// the graph the daemon loads and, for the record, every request it will
// be sent.
func (in *inputs) files() map[string][]byte {
	var ops, order, arrivals, updates bytes.Buffer
	for _, o := range in.ops {
		fmt.Fprintf(&ops, "%s %s\n", o.path, o.body)
	}
	for _, i := range in.order {
		fmt.Fprintln(&order, i)
	}
	for _, a := range in.arrivals {
		fmt.Fprintln(&arrivals, a.Nanoseconds())
	}
	for _, w := range in.watch {
		fmt.Fprintf(&updates, "watch %q\n", w)
	}
	for _, d := range append(append([][]client.UpdateOp(nil), in.toggles...), in.noop) {
		updates.Write(updateBody(d))
		updates.WriteByte('\n')
	}
	return map[string][]byte{
		"graph.graph": in.graphText, "ops.txt": ops.Bytes(), "order.txt": order.Bytes(),
		"arrivals.txt": arrivals.Bytes(), "updates.txt": updates.Bytes(),
	}
}

// digest hashes the input files in a fixed order.
func (in *inputs) digest() string {
	h := sha256.New()
	files := in.files()
	for _, name := range []string{"graph.graph", "ops.txt", "order.txt", "arrivals.txt", "updates.txt"} {
		fmt.Fprintf(h, "%s %d\n", name, len(files[name]))
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// write puts the input files into dir and returns the graph file's path.
func (in *inputs) write(dir string) (string, error) {
	for name, data := range in.files() {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return "", err
		}
	}
	return filepath.Join(dir, "graph.graph"), nil
}
