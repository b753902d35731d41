package gio

import (
	"bytes"
	"strings"
	"testing"

	"gpm/internal/pattern"
)

// reversePattern rebuilds p with node ids reversed and edges inserted in
// reverse order — a deterministic relabeling the canonical form must be
// blind to.
func reversePattern(p *pattern.Pattern) *pattern.Pattern {
	n := p.N()
	q := pattern.New()
	for i := 0; i < n; i++ {
		q.AddNode(nil)
	}
	for u := 0; u < n; u++ {
		q.SetPred(n-1-u, p.Pred(u))
	}
	es := p.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		e := es[i]
		var err error
		if e.Ranged() {
			_, err = q.AddRangeEdge(n-1-e.From, n-1-e.To, e.MinBound, e.Bound, e.Color)
		} else {
			_, err = q.AddColoredEdge(n-1-e.From, n-1-e.To, e.Bound, e.Color)
		}
		if err != nil {
			panic(err)
		}
	}
	return q
}

// FuzzCanonicalPattern: for every parseable pattern, canonicalisation
// must be idempotent through the text format — Canonical(ReadPattern(
// Canonical(p).Text)) == Canonical(p) — and invariant under relabeling.
func FuzzCanonicalPattern(f *testing.F) {
	seeds := []string{
		"pattern 1\nnode 0 *\n",
		"pattern 2\nnode 0 A\nnode 1 B\nedge 0 1 1\n",
		"pattern 3\nnode 0 a >= 3\nnode 1 *\nnode 2 label = x\nedge 0 1 *\nedge 1 2 2..5\nedge 2 0 3 f\n",
		"pattern 4\nnode 0 A\nnode 1 A\nnode 2 A\nnode 3 A\nedge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 0 1\n",
		"pattern 2\nnode 0 w <= 5 && label = \"db systems\"\nnode 1 w <= 5\nedge 1 0 2\n",
		"pattern 3\nnode 0 B\nnode 1 B\nnode 2 R\nedge 2 0 2\nedge 2 1 2\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPattern(bytes.NewReader(data))
		if err != nil || p.N() > 12 {
			return // unparseable or big enough to make the fuzz loop slow
		}
		c1, err := p.Canonical()
		if err != nil {
			return // over budget: legitimately uncacheable
		}
		p2, err := ReadPattern(strings.NewReader(c1.Text))
		if err != nil {
			t.Fatalf("canonical text rejected by ReadPattern: %v\ntext: %q", err, c1.Text)
		}
		c2, err := p2.Canonical()
		if err != nil {
			t.Fatalf("reparsed canonical pattern failed to canonicalise: %v", err)
		}
		if c1.Text != c2.Text || c1.Digest != c2.Digest {
			t.Fatalf("canonicalisation not idempotent:\nfirst:  %q (%#x)\nsecond: %q (%#x)", c1.Text, c1.Digest, c2.Text, c2.Digest)
		}
		c3, err := reversePattern(p).Canonical()
		if err != nil {
			t.Fatalf("relabeled pattern failed to canonicalise: %v", err)
		}
		if c1.Text != c3.Text || c1.Digest != c3.Digest {
			t.Fatalf("canonical form depends on labeling:\noriginal:  %q\nrelabeled: %q", c1.Text, c3.Text)
		}
	})
}

// TestCanonicalTextRoundTrip pins that a canonical pattern text parses
// back into a pattern whose relation semantics are those of the original
// (same node count, isomorphic edges — checked via a second canonical
// pass on handcrafted patterns).
func TestCanonicalTextRoundTrip(t *testing.T) {
	p := pattern.New()
	a := p.AddNode(pattern.Label("CS"))
	b := p.AddNode(nil)
	c := p.AddNode(pattern.Predicate{})
	if _, err := p.AddColoredEdge(a, b, 2, "ref"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddRangeEdge(b, c, 2, 5, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddEdge(c, a, pattern.Unbounded); err != nil {
		t.Fatal(err)
	}
	c1, err := p.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ReadPattern(strings.NewReader(c1.Text))
	if err != nil {
		t.Fatalf("ReadPattern(canonical text): %v", err)
	}
	if p2.N() != p.N() || p2.EdgeCount() != p.EdgeCount() {
		t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d edges", p2.N(), p.N(), p2.EdgeCount(), p.EdgeCount())
	}
	c2, err := p2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c2.Text != c1.Text || c2.Digest != c1.Digest {
		t.Fatalf("round trip changed canonical form:\n%q\n%q", c1.Text, c2.Text)
	}
}
