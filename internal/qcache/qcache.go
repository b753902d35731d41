// Package qcache is gpmd's relation-result cache: a byte-bounded LRU
// keyed by (graph, generation, semantics, canonical pattern digest),
// with a containment fallback that turns near-misses into cheap seeded
// queries.
//
// Identity, not heuristics: the key's digest is the 64-bit hash of the
// pattern's canonical form (internal/pattern Canonical), so any two
// isomorphic patterns — regardless of node numbering or edge order —
// share an entry, and a stored canonical text guards the vanishingly
// unlikely digest collision. The generation component is the engine's
// monotone update token (gpm.Engine Generation): an effective update
// moves every subsequent lookup to a new generation, orphaning old
// entries without any flush, while net-no-op batches leave the token —
// and therefore every cached answer — untouched.
//
// Rows are numbered by a spelling, not by the canonical form: an entry
// keeps its rows and pattern in the numbering of the request text that
// computed it, plus that text's canonical node order (pattern.Canon
// Perm). A hit from an isomorphic spelling with other node ids gets the
// rows permuted into its own numbering, through the two orders.
//
// The containment fallback is the paper-adjacent piece (Fan et al.'s
// VLDB 2010 framework treats matches as relations; containment between
// patterns transfers to containment between their relations): when the
// exact digest misses, Seed scans the same (graph, generation,
// semantics) bucket for a cached pattern p′ that CONTAINS the query p
// — pattern.Containment(p′, p, mode) — and unions the witnessed rows of
// p′'s relation into a candidate seed for p. The engine's fixpoint,
// started from that superset instead of a whole-graph scan, returns the
// exact same relation it would have computed cold (the greatest
// fixpoint inside any superset of the maximum relation is the maximum
// relation), only faster.
package qcache

import (
	"container/list"
	"slices"
	"sync"

	"gpm/internal/pattern"
)

// Key identifies one cached relation.
type Key struct {
	// Graph is the bound graph's name.
	Graph string
	// Generation is the engine's update token at the time the relation
	// was computed; see gpm.Engine Generation.
	Generation uint64
	// Semantics is the wire name of the matching semantics: "match",
	// "sim", "dual" or "strong".
	Semantics string
	// Digest is the canonical pattern digest (pattern.Canon.Digest).
	Digest uint64
}

// bucket groups the entries a containment probe may scan: same graph,
// same generation, same semantics.
type bucketKey struct {
	graph      string
	generation uint64
	semantics  string
}

func (k Key) bucket() bucketKey {
	return bucketKey{k.Graph, k.Generation, k.Semantics}
}

// entry is one cached relation. Relation rows are shared with callers
// and treated as immutable by contract.
type entry struct {
	key   Key
	canon string // canonical pattern text: digest-collision guard
	perm  []int  // canonical node order of the spelling pat and rel use; nil if unknown
	pat   *pattern.Pattern
	rel   [][]int32
	ok    bool
	size  int64
	// wire is the encoded hit response for this entry, in perm's
	// numbering, memoised by the server after the first exact hit from
	// that spelling so later ones skip the JSON encode entirely. Nil until
	// set; billed against the byte budget.
	wire []byte
}

// entryOverhead approximates the per-entry bookkeeping bytes (list
// element, map slots, struct headers) added to the measured payload.
const entryOverhead = 256

func entrySize(canon string, pat *pattern.Pattern, rel [][]int32) int64 {
	cells := 0
	for _, row := range rel {
		cells += len(row)
	}
	// The pattern's in-memory footprint tracks its text closely enough
	// to bill it as a second copy of the canonical form.
	return entryOverhead + 2*int64(len(canon)) + 4*int64(cells)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits            int64 // exact canonical-digest hits
	Misses          int64 // lookups that found no exact entry
	ContainmentHits int64 // misses answered via a containing pattern's seed
	Evictions       int64 // entries dropped to fit the byte budget
	Entries         int64 // live entries
	Bytes           int64 // live payload bytes (approximate)
	MaxBytes        int64 // configured budget
}

// Cache is a concurrency-safe byte-bounded LRU over relation results.
// The zero value is not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	ll      *list.List // front = most recently used; values are *entry
	items   map[Key]*list.Element
	buckets map[bucketKey]map[*list.Element]struct{}

	// canonical-form memo: raw request pattern text -> canonical form and
	// node order. The mapping is pure (text in, canonical out), so entries
	// never need invalidating; the two-generation rotation bounds memory
	// instead of tracking recency per entry.
	memo, memoPrev map[string]pattern.Canon

	hits, misses, containment, evictions int64
}

// canonMemoCap bounds each memo generation; at most 2*canonMemoCap
// distinct pattern texts are remembered at once.
const canonMemoCap = 4096

// New returns an empty cache bounded by maxBytes of (approximate)
// payload. maxBytes must be positive; a server that wants caching off
// simply holds a nil *Cache.
func New(maxBytes int64) *Cache {
	return &Cache{
		max:     maxBytes,
		ll:      list.New(),
		items:   make(map[Key]*list.Element),
		buckets: make(map[bucketKey]map[*list.Element]struct{}),
		memo:    make(map[string]pattern.Canon),
	}
}

// Spelling looks up the memoised canonical form of raw pattern text,
// with the text's node order. A hit lets the request path skip both the
// pattern parse and the canonical search; a miss means the caller must
// compute them (and should record the result with PutSpelling).
func (c *Cache) Spelling(text string) (pattern.Canon, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cn, found := c.memo[text]; found {
		return cn, true
	}
	if cn, found := c.memoPrev[text]; found {
		c.memo[text] = cn // promote so a rotation doesn't drop a live text
		return cn, true
	}
	return pattern.Canon{}, false
}

// PutSpelling memoises one text -> canonical form mapping.
func (c *Cache) PutSpelling(text string, cn pattern.Canon) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.memo) >= canonMemoCap {
		c.memoPrev = c.memo
		c.memo = make(map[string]pattern.Canon)
	}
	c.memo[text] = cn
}

// Canon, PutCanon, Get and Put are the order-blind forms of Spelling,
// PutSpelling, GetSpelled and PutSpelled: they pass no node order, so
// the order is unknown and rows come back as stored, whichever spelling
// stored them, with no memoised response.

// Canon is Spelling without the node order.
//
// Deprecated: use Spelling; Canon stays only for benchmark/layers.go.
func (c *Cache) Canon(text string) (digest uint64, canonText string, ok bool) {
	cn, ok := c.Spelling(text)
	return cn.Digest, cn.Text, ok
}

// PutCanon is PutSpelling with the node order unknown.
//
// Deprecated: use PutSpelling; PutCanon stays only for benchmark/layers.go.
func (c *Cache) PutCanon(text string, digest uint64, canonText string) {
	c.PutSpelling(text, pattern.Canon{Text: canonText, Digest: digest})
}

// Get is GetSpelled with the node order unknown.
//
// Deprecated: use GetSpelled; Get stays only for benchmark/layers.go.
func (c *Cache) Get(key Key, canon string) (rel [][]int32, wire []byte, ok bool, hit bool) {
	return c.GetSpelled(key, pattern.Canon{Text: canon})
}

// Put is PutSpelled with the node order unknown.
//
// Deprecated: use PutSpelled; Put stays only for benchmark/layers.go.
func (c *Cache) Put(key Key, canon string, pat *pattern.Pattern, rel [][]int32, resOK bool) {
	c.PutSpelled(key, pattern.Canon{Text: canon}, pat, rel, resOK)
}

// GetSpelled looks up an exact entry for the spelling sp. sp.Text must be
// the canonical text whose digest is key.Digest: a stored entry with a
// different text is a digest collision and reported as a miss. The rows
// come back in sp's numbering: the stored rows when sp's node order is
// the entry's, else a reordering of them. When either order is unknown
// (nil) the stored rows come back as they are. The returned rows and
// wire bytes are shared — callers must not mutate them. wire is non-nil
// only when sp's order is known and the entry's, and an earlier hit
// memoised the encoded response via SetWire.
func (c *Cache) GetSpelled(key Key, sp pattern.Canon) (rel [][]int32, wire []byte, ok bool, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if !found || el.Value.(*entry).canon != sp.Text {
		c.misses++
		return nil, nil, false, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	switch {
	case sameOrder(e.perm, sp.Perm):
		return e.rel, e.wire, e.ok, true
	case e.perm == nil || sp.Perm == nil:
		return e.rel, nil, e.ok, true
	}
	rel = make([][]int32, len(e.rel))
	for i, orig := range e.perm {
		rel[sp.Perm[i]] = e.rel[orig]
	}
	return rel, nil, e.ok, true
}

// sameOrder reports whether two canonical node orders are known and
// agree.
func sameOrder(a, b []int) bool {
	return a != nil && b != nil && slices.Equal(a, b)
}

// SetWire memoises the encoded hit response for an existing entry, as
// the spelling sp numbers it. Only the spelling whose order the entry
// holds may set it, so replayed bytes are always in the entry's
// numbering. The bytes are billed against the budget (evicting from the
// cold end as needed) so a cache full of large responses cannot outgrow
// -cache-bytes.
func (c *Cache) SetWire(key Key, sp pattern.Canon, wire []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if !found {
		return
	}
	e := el.Value.(*entry)
	if e.canon != sp.Text || e.wire != nil || !sameOrder(e.perm, sp.Perm) {
		return
	}
	e.wire = wire
	e.size += int64(len(wire))
	c.bytes += int64(len(wire))
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.remove(back)
		c.evictions++
	}
}

// PutSpelled stores a relation under key. pat must be the parsed pattern
// the relation answers (kept for containment probes), spelled as sp: rel
// and pat share one numbering, and sp carries its canonical text and
// node order. Entries larger than the whole budget are silently not
// cached; an existing entry under the same key is refreshed in place,
// dropping its memoised response.
func (c *Cache) PutSpelled(key Key, sp pattern.Canon, pat *pattern.Pattern, rel [][]int32, resOK bool) {
	size := entrySize(sp.Text, pat, rel)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, dup := c.items[key]; dup {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.canon, e.perm, e.pat, e.rel, e.ok, e.size, e.wire = sp.Text, sp.Perm, pat, rel, resOK, size, nil
		c.ll.MoveToFront(el)
	} else {
		e := &entry{key: key, canon: sp.Text, perm: sp.Perm, pat: pat, rel: rel, ok: resOK, size: size}
		el := c.ll.PushFront(e)
		c.items[key] = el
		bk := key.bucket()
		if c.buckets[bk] == nil {
			c.buckets[bk] = make(map[*list.Element]struct{})
		}
		c.buckets[bk][el] = struct{}{}
		c.bytes += size
	}
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.remove(back)
		c.evictions++
	}
}

// remove unlinks one element from every index. Caller holds c.mu.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	bk := e.key.bucket()
	delete(c.buckets[bk], el)
	if len(c.buckets[bk]) == 0 {
		delete(c.buckets, bk)
	}
	c.bytes -= e.size
}

// Seed scans the (graph, generation, semantics) bucket for a cached
// pattern that contains p under mode and, when one is found, derives a
// candidate seed for p: seed[u] is the union of the cached relation's
// rows over u's containment witnesses. The rows may be unsorted and
// carry duplicates — gpm.Engine.RelationQuery normalises seeds. The
// containment witnesses name nodes of the cached pattern, whose numbering
// its rows share, so the seed is right whichever spelling stored the
// entry and whichever spelling p is. Entries
// whose relation was not total (ok false) still seed correctly: an empty
// witnessed row just proves the query node matches nothing.
func (c *Cache) Seed(graph string, generation uint64, semantics string, p *pattern.Pattern, mode pattern.ContainMode) ([][]int32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bk := bucketKey{graph, generation, semantics}
	for el := range c.buckets[bk] {
		e := el.Value.(*entry)
		witness, ok := pattern.Containment(e.pat, p, mode)
		if !ok {
			continue
		}
		seed := make([][]int32, p.N())
		for u := range seed {
			for _, a := range witness[u] {
				seed[u] = append(seed[u], e.rel[a]...)
			}
		}
		c.containment++
		c.ll.MoveToFront(el)
		return seed, true
	}
	return nil, false
}

// DropStale evicts every entry for graph whose generation is not
// current. Stale entries are already unreachable — lookups key on the
// live generation — so this only reclaims bytes early; a net-no-op
// update that leaves the generation alone therefore drops nothing.
func (c *Cache) DropStale(graph string, current uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for bk, els := range c.buckets {
		if bk.graph != graph || bk.generation == current {
			continue
		}
		for el := range els {
			c.remove(el)
		}
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:            c.hits,
		Misses:          c.misses,
		ContainmentHits: c.containment,
		Evictions:       c.evictions,
		Entries:         int64(c.ll.Len()),
		Bytes:           c.bytes,
		MaxBytes:        c.max,
	}
}
