package qcache

import (
	"fmt"
	"reflect"
	"testing"

	"gpm/internal/pattern"
)

// labelPattern builds a path pattern; an empty label is a wildcard node.
func labelPattern(labels ...string) *pattern.Pattern {
	p := pattern.New()
	ids := make([]int, len(labels))
	for i, l := range labels {
		var pred pattern.Predicate
		if l != "" {
			pred = pattern.Label(l)
		}
		ids[i] = p.AddNode(pred)
	}
	for i := 0; i+1 < len(ids); i++ {
		p.MustAddEdge(ids[i], ids[i+1], 1)
	}
	return p
}

func keyOf(p *pattern.Pattern, graph string, gen uint64, sem string) (Key, string) {
	c, err := p.Canonical()
	if err != nil {
		panic(err)
	}
	return Key{Graph: graph, Generation: gen, Semantics: sem, Digest: c.Digest}, c.Text
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	p := labelPattern("A", "B")
	key, canon := keyOf(p, "g", 0, "match")
	if _, _, _, hit := c.Get(key, canon); hit {
		t.Fatal("hit on empty cache")
	}
	rel := [][]int32{{1, 2}, {3}}
	c.Put(key, canon, p, rel, true)
	got, _, ok, hit := c.Get(key, canon)
	if !hit || !ok {
		t.Fatalf("Get after Put: hit=%v ok=%v", hit, ok)
	}
	if len(got) != 2 || got[0][0] != 1 || got[1][0] != 3 {
		t.Fatalf("Get returned %v", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats after one miss and one hit: %+v", st)
	}
}

// A digest collision (same key, different canonical text) must read as a
// miss, never as another pattern's relation.
func TestCollisionGuard(t *testing.T) {
	c := New(1 << 20)
	p := labelPattern("A", "B")
	key, canon := keyOf(p, "g", 0, "match")
	c.Put(key, canon, p, [][]int32{{1}, {2}}, true)
	if _, _, _, hit := c.Get(key, canon+"x"); hit {
		t.Fatal("collision guard let a mismatched canonical text hit")
	}
}

// Distinct generations are distinct entries: an effective update keys
// new answers under the new token, and old ones stay invisible.
func TestGenerationKeysDiffer(t *testing.T) {
	c := New(1 << 20)
	p := labelPattern("A", "B")
	k0, canon := keyOf(p, "g", 0, "match")
	k1 := k0
	k1.Generation = 1
	c.Put(k0, canon, p, [][]int32{{1}, {2}}, true)
	if _, _, _, hit := c.Get(k1, canon); hit {
		t.Fatal("generation 1 lookup hit a generation 0 entry")
	}
}

func TestEvictionRespectsByteBudget(t *testing.T) {
	p := labelPattern("A", "B")
	_, canon := keyOf(p, "g", 0, "match")
	one := entrySize(canon, p, [][]int32{{1}, {2}})
	c := New(3 * one)
	for i := 0; i < 5; i++ {
		k, _ := keyOf(p, fmt.Sprintf("g%d", i), 0, "match")
		c.Put(k, canon, p, [][]int32{{1}, {2}}, true)
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("want 3 entries, 2 evictions; got %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
	// LRU order: the oldest two graphs are gone, the newest three live.
	for i := 0; i < 5; i++ {
		k, _ := keyOf(p, fmt.Sprintf("g%d", i), 0, "match")
		_, _, _, hit := c.Get(k, canon)
		if want := i >= 2; hit != want {
			t.Errorf("graph g%d: hit=%v, want %v", i, hit, want)
		}
	}
}

func TestOversizedEntryNotCached(t *testing.T) {
	c := New(16)
	p := labelPattern("A", "B")
	key, canon := keyOf(p, "g", 0, "match")
	c.Put(key, canon, p, [][]int32{{1}, {2}}, true)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversized entry was cached: %+v", st)
	}
}

// Seed finds a containing pattern in the same bucket and unions its
// witnessed rows; patterns in other buckets (different graph, different
// generation, different semantics) are invisible.
func TestSeedFromContainingPattern(t *testing.T) {
	c := New(1 << 20)
	// loose: *->* contains strict: A->B (every relation of strict is a
	// sub-relation of loose's under the child mode).
	loose := labelPattern("", "")
	strict := labelPattern("A", "B")
	key, canon := keyOf(loose, "g", 7, "sim")
	rel := [][]int32{{0, 1, 2}, {3, 4}}
	c.Put(key, canon, loose, rel, true)

	if _, found := c.Seed("g", 7, "sim", strict, pattern.ContainChild); !found {
		t.Fatal("containing pattern in bucket not found")
	}
	seed, found := c.Seed("g", 7, "sim", strict, pattern.ContainChild)
	if !found {
		t.Fatal("second probe missed")
	}
	if len(seed) != strict.N() {
		t.Fatalf("seed has %d rows for a %d-node pattern", len(seed), strict.N())
	}
	// Every witnessed row of loose must be present in the union.
	if len(seed[0]) == 0 || len(seed[1]) == 0 {
		t.Fatalf("empty seed rows: %v", seed)
	}
	for _, probe := range []struct {
		graph string
		gen   uint64
		sem   string
	}{{"other", 7, "sim"}, {"g", 8, "sim"}, {"g", 7, "dual"}} {
		if _, found := c.Seed(probe.graph, probe.gen, probe.sem, strict, pattern.ContainChild); found {
			t.Errorf("bucket (%q, %d, %q) leaked into the probe", probe.graph, probe.gen, probe.sem)
		}
	}
	if st := c.Stats(); st.ContainmentHits != 2 {
		t.Fatalf("containment hits = %d, want 2", st.ContainmentHits)
	}
}

// A pattern that does NOT contain the query must not seed it.
func TestSeedRejectsNonContaining(t *testing.T) {
	c := New(1 << 20)
	strict := labelPattern("A", "B")
	loose := labelPattern("", "")
	key, canon := keyOf(strict, "g", 0, "sim")
	c.Put(key, canon, strict, [][]int32{{1}, {2}}, true)
	// strict does not contain loose: loose's relation can exceed strict's.
	if _, found := c.Seed("g", 0, "sim", loose, pattern.ContainChild); found {
		t.Fatal("non-containing pattern produced a seed")
	}
}

// SetWire memoises encoded bytes on an existing entry, bills them
// against the budget, and refuses mismatched canonical texts.
func TestSetWire(t *testing.T) {
	c := New(1 << 20)
	p := labelPattern("A", "B")
	sp, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Graph: "g", Semantics: "match", Digest: sp.Digest}
	c.SetWire(key, sp, []byte("early")) // no entry yet: ignored
	c.PutSpelled(key, sp, p, [][]int32{{1}, {2}}, true)
	before := c.Stats().Bytes
	if _, wire, _, hit := c.GetSpelled(key, sp); !hit || wire != nil {
		t.Fatalf("before SetWire: hit=%v wire=%q", hit, wire)
	}
	collision := sp
	collision.Text += "x"
	c.SetWire(key, collision, []byte("collision")) // wrong canon: ignored
	c.SetWire(key, sp, []byte("body\n"))
	c.SetWire(key, sp, []byte("other\n")) // first write wins
	_, wire, _, hit := c.GetSpelled(key, sp)
	if !hit || string(wire) != "body\n" {
		t.Fatalf("after SetWire: hit=%v wire=%q", hit, wire)
	}
	if got := c.Stats().Bytes; got != before+5 {
		t.Errorf("wire bytes not billed: %d -> %d, want +5", before, got)
	}
}

// renamed rebuilds p with node u renumbered to perm[u] and the edges in
// the same order: an isomorphic spelling with other node ids.
func renamed(p *pattern.Pattern, perm []int) *pattern.Pattern {
	q := pattern.New()
	for u := 0; u < p.N(); u++ {
		q.AddNode(nil)
	}
	for u := 0; u < p.N(); u++ {
		q.SetPred(perm[u], p.Pred(u))
	}
	for _, e := range p.Edges() {
		q.MustAddEdge(perm[e.From], perm[e.To], e.Bound)
	}
	return q
}

// A hit from a spelling that numbers the nodes differently gets the rows
// in its own numbering, and never the first spelling's memoised bytes.
func TestGetSpelledRenumbersRows(t *testing.T) {
	c := New(1 << 20)
	p := labelPattern("A", "B", "C")
	q := renamed(p, []int{2, 0, 1}) // p's node u is q's node perm[u]
	sp, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	sq, err := q.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Digest != sq.Digest || sp.Text != sq.Text {
		t.Fatal("renamed spelling has another canonical form")
	}
	key := Key{Graph: "g", Semantics: "match", Digest: sp.Digest}
	c.PutSpelled(key, sp, p, [][]int32{{10}, {20}, {30}}, true)
	c.SetWire(key, sq, []byte("q's bytes")) // not the entry's order: ignored
	c.SetWire(key, sp, []byte("p's bytes"))

	rows, wire, _, hit := c.GetSpelled(key, sq)
	if !hit || wire != nil {
		t.Fatalf("renamed hit: hit=%v wire=%q, want rows and no memoised bytes", hit, wire)
	}
	if want := [][]int32{{20}, {30}, {10}}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("renamed hit rows %v, want %v (q's numbering)", rows, want)
	}
	if _, wire, _, _ := c.GetSpelled(key, sp); string(wire) != "p's bytes" {
		t.Fatalf("original spelling's hit wire = %q", wire)
	}
}

// The order-blind Put and Get leave the node order unknown: rows come
// back as stored, never permuted, and no memoised bytes are set or
// replayed across an unknown order.
func TestUnknownOrderReturnsStoredRows(t *testing.T) {
	p := labelPattern("A", "B", "C")
	q := renamed(p, []int{2, 0, 1})
	sp, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	sq, err := q.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Graph: "g", Semantics: "match", Digest: sp.Digest}
	stored := [][]int32{{10}, {20}, {30}}

	c := New(1 << 20) // unknown order stored, known order asks
	c.Put(key, sp.Text, p, stored, true)
	c.SetWire(key, sq, []byte("q's bytes"))
	if rows, wire, _, hit := c.GetSpelled(key, sq); !hit || wire != nil || !reflect.DeepEqual(rows, stored) {
		t.Fatalf("Put then GetSpelled: hit=%v wire=%q rows %v, want %v", hit, wire, rows, stored)
	}

	c = New(1 << 20) // known order stored, unknown order asks
	c.PutSpelled(key, sq, q, stored, true)
	c.SetWire(key, sq, []byte("q's bytes"))
	if rows, wire, _, hit := c.Get(key, sp.Text); !hit || wire != nil || !reflect.DeepEqual(rows, stored) {
		t.Fatalf("PutSpelled then Get: hit=%v wire=%q rows %v, want %v", hit, wire, rows, stored)
	}
}

// Seed over an entry stored by one spelling, probed by a renamed
// refinement: the seed rows must follow the refinement's numbering, so
// they cover its true relation.
func TestSeedRenamedRefinement(t *testing.T) {
	c := New(1 << 20)
	loose := labelPattern("A", "", "C")
	sp, err := loose.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	rel := [][]int32{{1, 2}, {3, 4}, {5}}
	c.PutSpelled(Key{Graph: "g", Semantics: "sim", Digest: sp.Digest}, sp, loose, rel, true)

	// The refinement pins loose's wildcard middle to B, and numbers the
	// nodes C, A, B.
	strict := renamed(labelPattern("A", "B", "C"), []int{1, 2, 0})
	seed, found := c.Seed("g", 0, "sim", strict, pattern.ContainChild)
	if !found {
		t.Fatal("renamed refinement found no containing entry")
	}
	want := [][]int32{{5}, {1, 2}, {3, 4}}
	if !reflect.DeepEqual(seed, want) {
		t.Fatalf("seed %v, want %v in the refinement's numbering", seed, want)
	}
}

func TestCanonMemo(t *testing.T) {
	c := New(1 << 20)
	if _, _, ok := c.Canon("0 A\n"); ok {
		t.Fatal("empty memo hit")
	}
	c.PutCanon("0 A\n", 42, "canon-text")
	d, text, ok := c.Canon("0 A\n")
	if !ok || d != 42 || text != "canon-text" {
		t.Fatalf("memo returned (%d, %q, %v)", d, text, ok)
	}
	// Rotation keeps recently-promoted entries alive: fill one generation,
	// rotate, and check the original text survives via promotion.
	for i := 0; i < canonMemoCap; i++ {
		c.PutCanon(fmt.Sprintf("t%d", i), uint64(i), "x")
	}
	if _, _, ok := c.Canon("0 A\n"); !ok {
		t.Fatal("entry lost after one rotation")
	}
}

func TestDropStale(t *testing.T) {
	c := New(1 << 20)
	p := labelPattern("A", "B")
	for gen := uint64(0); gen < 3; gen++ {
		k, canon := keyOf(p, "g", gen, "match")
		c.Put(k, canon, p, [][]int32{{1}, {2}}, true)
	}
	kOther, canonOther := keyOf(p, "other", 0, "match")
	c.Put(kOther, canonOther, p, [][]int32{{1}, {2}}, true)

	c.DropStale("g", 2)
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("DropStale left %d entries, want 2 (current gen + other graph)", st.Entries)
	}
	k2, canon := keyOf(p, "g", 2, "match")
	if _, _, _, hit := c.Get(k2, canon); !hit {
		t.Error("DropStale removed the current generation's entry")
	}
	if _, _, _, hit := c.Get(kOther, canonOther); !hit {
		t.Error("DropStale removed another graph's entry")
	}
	// Dropping with an unchanged generation (the no-op update path) must
	// evict nothing.
	before := c.Stats().Entries
	c.DropStale("g", 2)
	if after := c.Stats().Entries; after != before {
		t.Errorf("no-op DropStale evicted %d entries", before-after)
	}
}
