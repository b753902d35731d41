package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpm/internal/value"
)

// atomPool is a small universe of atoms whose implication structure is
// nontrivial (equalities, intervals, disequalities, mixed kinds).
var atomPool = []Atom{
	{Attr: "label", Op: value.OpEQ, Val: value.Str("A")},
	{Attr: "label", Op: value.OpEQ, Val: value.Str("B")},
	{Attr: "label", Op: value.OpNE, Val: value.Str("B")},
	{Attr: "age", Op: value.OpGE, Val: value.Int(10)},
	{Attr: "age", Op: value.OpGT, Val: value.Int(10)},
	{Attr: "age", Op: value.OpLT, Val: value.Int(30)},
	{Attr: "age", Op: value.OpLE, Val: value.Int(20)},
	{Attr: "age", Op: value.OpEQ, Val: value.Int(15)},
	{Attr: "age", Op: value.OpNE, Val: value.Int(15)},
	{Attr: "score", Op: value.OpGE, Val: value.Float(0.5)},
	{Attr: "score", Op: value.OpLT, Val: value.Float(2.5)},
	{Attr: "score", Op: value.OpEQ, Val: value.Float(1)},
}

// sampleValues covers the pool's boundary values, both sides of each
// bound, and an incomparable kind per attribute.
var sampleValues = map[string][]value.Value{
	"label": {value.Str("A"), value.Str("B"), value.Str("C"), value.Int(3)},
	"age":   {value.Int(9), value.Int(10), value.Int(11), value.Int(15), value.Int(20), value.Int(21), value.Int(30), value.Float(10.5), value.Str("x")},
	"score": {value.Float(0.4), value.Float(0.5), value.Float(1), value.Float(2.5), value.Int(1), value.Str("y")},
}

func randPredicate(r *rand.Rand) Predicate {
	var p Predicate
	for _, a := range atomPool {
		if r.Intn(6) == 0 {
			p = append(p, a)
		}
	}
	return p
}

func randEdgeBound(r *rand.Rand, e *Edge) {
	switch r.Intn(6) {
	case 0:
		e.Bound = Unbounded
	case 1:
		e.MinBound, e.Bound = 2, 2+r.Intn(4)
	default:
		e.Bound = 1 + r.Intn(3)
	}
	if r.Intn(3) == 0 {
		e.Color = []string{"f", "g"}[r.Intn(2)]
	}
}

func randPattern(r *rand.Rand, maxNodes int) *Pattern {
	p := New()
	n := 1 + r.Intn(maxNodes)
	for i := 0; i < n; i++ {
		p.AddNode(randPredicate(r))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || r.Intn(3) != 0 {
				continue
			}
			e := Edge{From: u, To: v, Bound: 1}
			randEdgeBound(r, &e)
			if _, err := p.addEdge(e); err != nil {
				panic(err)
			}
		}
	}
	return p
}

// strengthen returns a pattern q with Contains(p, q) guaranteed by the
// identity witness: same nodes with conjuncts added, same edges with
// bounds tightened (and possibly colors added to uncolored edges), plus
// optional extra edges.
func strengthen(r *rand.Rand, p *Pattern) *Pattern {
	q := New()
	for u := 0; u < p.N(); u++ {
		pred := append(Predicate(nil), p.Pred(u)...)
		if r.Intn(2) == 0 {
			pred = append(pred, atomPool[r.Intn(len(atomPool))])
		}
		q.AddNode(pred)
	}
	for _, e := range p.Edges() {
		switch {
		case e.Ranged():
			// Narrow the window (keep MinBound valid: >= 2).
			if e.Bound > e.MinBound && r.Intn(2) == 0 {
				e.Bound--
			}
		case e.Bound == Unbounded:
			if r.Intn(2) == 0 {
				e.Bound = 1 + r.Intn(3)
			}
		default:
			e.Bound = 1 + r.Intn(e.Bound)
		}
		if e.Color == "" && r.Intn(3) == 0 {
			e.Color = "f"
		}
		if _, err := q.addEdge(e); err != nil {
			panic(err)
		}
	}
	// Extra structure only makes q stricter.
	for tries := r.Intn(3); tries > 0; tries-- {
		u, v := r.Intn(q.N()), r.Intn(q.N())
		if u == v || q.HasEdge(u, v) {
			continue
		}
		e := Edge{From: u, To: v, Bound: 1}
		randEdgeBound(r, &e)
		if _, err := q.addEdge(e); err != nil {
			panic(err)
		}
	}
	return q
}

// naiveContainment is the brute-force reference: re-check every pair's
// conditions until nothing changes.
func naiveContainment(p, q *Pattern, mode ContainMode) ([][]int32, bool) {
	np, nq := p.N(), q.N()
	rel := make([][]bool, nq)
	for u := range rel {
		rel[u] = make([]bool, np)
		for a := 0; a < np; a++ {
			rel[u][a] = predImplies(q.Pred(u), p.Pred(a))
		}
		if !slices.Contains(rel[u], true) {
			return nil, false // u can never be covered
		}
	}
	holds := func(u, a int) bool {
		for _, peid := range p.Out(a) {
			ep := p.EdgeAt(int(peid))
			found := false
			for _, qeid := range q.Out(u) {
				eq := q.EdgeAt(int(qeid))
				if edgeServes(eq, ep) && rel[eq.To][ep.To] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		if mode == ContainDual {
			for _, peid := range p.In(a) {
				ep := p.EdgeAt(int(peid))
				found := false
				for _, qeid := range q.In(u) {
					eq := q.EdgeAt(int(qeid))
					if edgeServes(eq, ep) && rel[eq.From][ep.From] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < nq; u++ {
			for a := 0; a < np; a++ {
				if rel[u][a] && !holds(u, a) {
					rel[u][a] = false
					changed = true
				}
			}
		}
	}
	witness := make([][]int32, nq)
	ok := true
	for u := 0; u < nq; u++ {
		for a := 0; a < np; a++ {
			if rel[u][a] {
				witness[u] = append(witness[u], int32(a))
			}
		}
		if len(witness[u]) == 0 {
			ok = false
		}
	}
	return witness, ok
}

func witnessEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if len(a[u]) != len(b[u]) {
			return false
		}
		for i := range a[u] {
			if a[u][i] != b[u][i] {
				return false
			}
		}
	}
	return true
}

// TestContainmentMatchesNaive pins the counter/worklist fixpoint against
// the brute-force reference on random pattern pairs — independent random
// ones and strengthened (guaranteed-contained) ones — in both modes.
func TestContainmentMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randPattern(r, 4)
		var q *Pattern
		if seed%2 == 0 {
			q = strengthen(r, p)
		} else {
			q = randPattern(r, 4)
		}
		for _, mode := range []ContainMode{ContainChild, ContainDual} {
			got, gotOK := Containment(p, q, mode)
			want, wantOK := naiveContainment(p, q, mode)
			if gotOK != wantOK || !witnessEqual(got, want) {
				t.Fatalf("seed %d mode %v: witness mismatch\ngot  %v (ok=%v)\nwant %v (ok=%v)\np:\n%s\nq:\n%s",
					seed, mode, got, gotOK, want, wantOK, p, q)
			}
		}
	}
}

// TestContainmentUncoveredAllocatesNothing: a q-node whose predicate
// implies no p-node's fails Containment before anything is allocated.
func TestContainmentUncoveredAllocatesNothing(t *testing.T) {
	uncovered := 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randPattern(r, 4)
		q := randPattern(r, 4)
		covered := true
		for u := 0; u < q.N(); u++ {
			found := false
			for a := 0; a < p.N(); a++ {
				found = found || predImplies(q.Pred(u), p.Pred(a))
			}
			covered = covered && found
		}
		if covered {
			continue
		}
		uncovered++
		for _, mode := range []ContainMode{ContainChild, ContainDual} {
			var w [][]int32
			var ok bool
			if allocs := testing.AllocsPerRun(5, func() { w, ok = Containment(p, q, mode) }); allocs != 0 || ok || w != nil {
				t.Fatalf("seed %d mode %v: uncovered pair gave ok=%v witness %v with %v allocs, want (nil, false) and none", seed, mode, ok, w, allocs)
			}
		}
	}
	if uncovered == 0 {
		t.Error("no random pair was uncovered")
	}
}

// TestContainmentReflexive: every pattern contains itself via the
// identity witness, in both modes.
func TestContainmentReflexive(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		p := randPattern(r, 4)
		for _, mode := range []ContainMode{ContainChild, ContainDual} {
			w, ok := Containment(p, p, mode)
			if !ok {
				t.Fatalf("seed %d mode %v: pattern does not contain itself\n%s", seed, mode, p)
			}
			for u := 0; u < p.N(); u++ {
				found := false
				for _, a := range w[u] {
					if int(a) == u {
						found = true
					}
				}
				if !found {
					t.Fatalf("seed %d mode %v: identity pair (%d,%d) missing", seed, mode, u, u)
				}
			}
		}
	}
}

// TestContainsStrengthened: strengthening must always be contained, and
// a chain of strengthenings exercises transitivity positively.
func TestContainsStrengthened(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		p := randPattern(r, 4)
		q := strengthen(r, p)
		s := strengthen(r, q)
		if !Contains(p, q) {
			t.Fatalf("seed %d: strengthened pattern not contained\np:\n%s\nq:\n%s", seed, p, q)
		}
		if !Contains(q, s) {
			t.Fatalf("seed %d: second strengthening not contained", seed)
		}
		if !Contains(p, s) {
			t.Fatalf("seed %d: containment not transitive on the chain p ⊒ q ⊒ s", seed)
		}
	}
}

// TestContainsTransitive checks the transitivity axiom on arbitrary
// random triples (most are incomparable; the axiom must still never be
// violated when the premises do hold).
func TestContainsTransitive(t *testing.T) {
	hit := 0
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(3000 + seed))
		p := randPattern(r, 3)
		q := randPattern(r, 3)
		s := randPattern(r, 3)
		if Contains(p, q) && Contains(q, s) {
			hit++
			if !Contains(p, s) {
				t.Fatalf("seed %d: Contains(p,q) && Contains(q,s) but !Contains(p,s)\np:\n%s\nq:\n%s\ns:\n%s", seed, p, q, s)
			}
		}
	}
	if hit == 0 {
		t.Error("no random triple satisfied the premises; generator too sparse")
	}
}

// TestAtomImpliesSound: whenever atomImplies claims x ⇒ y, every sampled
// value satisfying x satisfies y.
func TestAtomImpliesSound(t *testing.T) {
	for _, x := range atomPool {
		for _, y := range atomPool {
			if !atomImplies(x, y) {
				continue
			}
			for attr, vals := range sampleValues {
				for _, v := range vals {
					tup := value.Tuple{attr: v}
					if x.Eval(tup) && !y.Eval(tup) {
						t.Errorf("atomImplies(%s, %s) but %s satisfies only the premise", x, y, tup)
					}
				}
			}
		}
	}
}

// TestAtomImpliesTransitive: implication composes over the pool.
func TestAtomImpliesTransitive(t *testing.T) {
	for _, a := range atomPool {
		for _, b := range atomPool {
			if !atomImplies(a, b) {
				continue
			}
			for _, c := range atomPool {
				if atomImplies(b, c) && !atomImplies(a, c) {
					t.Errorf("chain broken: (%s ⇒ %s), (%s ⇒ %s), but not (%s ⇒ %s)", a, b, b, c, a, c)
				}
			}
		}
	}
}

// TestEdgeServes pins the bound-aware edge comparison table.
func TestEdgeServes(t *testing.T) {
	plain := func(b int) Edge { return Edge{Bound: b} }
	ranged := func(lo, hi int) Edge { return Edge{MinBound: lo, Bound: hi} }
	colored := func(b int, c string) Edge { return Edge{Bound: b, Color: c} }
	cases := []struct {
		q, p Edge
		want bool
	}{
		{plain(1), plain(1), true},
		{plain(2), plain(3), true},
		{plain(3), plain(2), false},
		{plain(2), plain(Unbounded), true},
		{plain(Unbounded), plain(Unbounded), true},
		{plain(Unbounded), plain(5), false},
		{ranged(2, 3), plain(3), true},  // walk length <= 3 implies dist <= 3
		{ranged(2, 4), plain(3), false}, // walk may be longer
		{ranged(2, 4), plain(Unbounded), true},
		{plain(1), ranged(2, 4), false}, // a 1-hop path is no [2,4] walk
		{plain(4), ranged(2, 4), false}, // path may be shorter than lo
		{ranged(2, 3), ranged(2, 4), true},
		{ranged(3, 4), ranged(2, 4), true},
		{ranged(2, 4), ranged(3, 4), false},
		{colored(1, "f"), colored(2, "f"), true},
		{colored(1, "f"), colored(2, "g"), false},
		{colored(1, "f"), plain(2), true}, // uncolored p-edge accepts any witness
		{plain(1), colored(2, "f"), false},
	}
	for i, c := range cases {
		if got := edgeServes(c.q, c.p); got != c.want {
			t.Errorf("case %d: edgeServes(%v, %v) = %v, want %v", i, c.q, c.p, got, c.want)
		}
	}
}

// TestCanonicalRelabelInvariant: canonicalisation is invariant under
// random node permutations and edge insertion orders.
func TestCanonicalRelabelInvariant(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(4000 + seed))
		p := randPattern(r, 5)
		want, err := p.Canonical()
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		perm := r.Perm(p.N())
		shuffled := New()
		for i := 0; i < p.N(); i++ {
			shuffled.AddNode(nil)
		}
		for u := 0; u < p.N(); u++ {
			shuffled.SetPred(perm[u], append(Predicate(nil), p.Pred(u)...))
		}
		es := p.Edges()
		r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		for _, e := range es {
			e.From, e.To = perm[e.From], perm[e.To]
			if _, err := shuffled.addEdge(e); err != nil {
				panic(err)
			}
		}
		got, err := shuffled.Canonical()
		if err != nil {
			t.Fatalf("seed %d: relabeled canonicalisation failed: %v", seed, err)
		}
		if got.Text != want.Text || got.Digest != want.Digest {
			t.Fatalf("seed %d: canonical form not relabel-invariant\noriginal:\n%s\nrelabeled:\n%s", seed, want.Text, got.Text)
		}
		// The two orders compose into an isomorphism: the original's node
		// at canonical position i is the relabelled one's node there.
		iso := make([]int, p.N())
		for i, u := range want.Perm {
			iso[u] = got.Perm[i]
		}
		for u := 0; u < p.N(); u++ {
			if canonPredicate(p.Pred(u)).String() != canonPredicate(shuffled.Pred(iso[u])).String() {
				t.Fatalf("seed %d: Perm maps node %d onto %d with another predicate", seed, u, iso[u])
			}
		}
		sigs := map[[2]int]string{}
		for _, f := range shuffled.Edges() {
			sigs[[2]int{f.From, f.To}] = edgeSig(f)
		}
		for _, e := range p.Edges() {
			if sig, ok := sigs[[2]int{iso[e.From], iso[e.To]}]; !ok || sig != edgeSig(e) {
				t.Fatalf("seed %d: Perm maps edge %d->%d onto no equal edge", seed, e.From, e.To)
			}
		}
	}
}

// TestCanonicalDistinguishes: structurally different patterns get
// different digests.
func TestCanonicalDistinguishes(t *testing.T) {
	mk := func(bound int, color string, label string) *Pattern {
		p := New()
		a := p.AddNode(Label(label))
		b := p.AddNode(Label("B"))
		if _, err := p.AddColoredEdge(a, b, bound, color); err != nil {
			panic(err)
		}
		return p
	}
	ps := []*Pattern{
		mk(1, "", "A"), mk(2, "", "A"), mk(Unbounded, "", "A"),
		mk(1, "f", "A"), mk(1, "", "C"),
	}
	seen := map[uint64]string{}
	for _, p := range ps {
		c, err := p.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[c.Digest]; dup {
			t.Fatalf("digest collision between distinct patterns:\n%s\n--\n%s", prev, c.Text)
		}
		seen[c.Digest] = c.Text
	}
}

// TestCanonicalCollapsesDuplicateNodes: k interchangeable nodes are
// handled by the transposition pruning, not the budget.
func TestCanonicalCollapsesDuplicateNodes(t *testing.T) {
	p := New()
	root := p.AddNode(Label("R"))
	for i := 0; i < 20; i++ {
		leaf := p.AddNode(Label("L"))
		p.MustAddEdge(root, leaf, 2)
	}
	if _, err := p.Canonical(); err != nil {
		t.Fatalf("duplicate-leaf pattern should canonicalise: %v", err)
	}
}

// TestCanonicalBudget: a pathological symmetric pattern (disjoint
// identical triangles — rotations, not transpositions) exhausts the
// budget and reports an error instead of burning unbounded CPU.
func TestCanonicalBudget(t *testing.T) {
	p := New()
	for k := 0; k < 10; k++ {
		a := p.AddNode(Label("T"))
		b := p.AddNode(Label("T"))
		c := p.AddNode(Label("T"))
		p.MustAddEdge(a, b, 1)
		p.MustAddEdge(b, c, 1)
		p.MustAddEdge(c, a, 1)
	}
	if _, err := p.Canonical(); err == nil {
		t.Skip("search finished within budget; symmetric case got cheaper")
	} else if want := "budget"; !containsStr(err.Error(), want) {
		t.Fatalf("error %q does not mention the %s", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCanonicalTooLarge: the node cap is enforced.
func TestCanonicalTooLarge(t *testing.T) {
	p := New()
	for i := 0; i < canonMaxNodes+1; i++ {
		p.AddNode(Label(fmt.Sprintf("n%d", i)))
	}
	if _, err := p.Canonical(); err == nil {
		t.Fatal("oversized pattern canonicalised")
	}
}
