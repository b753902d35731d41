package gio

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gpm/internal/fixtures"
	"gpm/internal/graph"
	"gpm/internal/incremental"
	"gpm/internal/pattern"
	"gpm/internal/value"
)

func TestGraphRoundTrip(t *testing.T) {
	g := graph.New(3)
	g.SetAttr(0, graph.Attrs{"label": value.Str("A"), "w": value.Int(5)})
	g.SetAttr(1, graph.Attrs{"rate": value.Float(4.5), "name": value.Str("two words")})
	g.AddColoredEdge(0, 1, "friend")
	g.AddEdge(1, 2)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 3 || got.M() != 2 {
		t.Fatalf("size %d/%d", got.N(), got.M())
	}
	if c, _ := got.Color(0, 1); c != "friend" {
		t.Errorf("color = %q", c)
	}
	if v, _ := got.Attr(0)["w"].AsInt(); v != 5 {
		t.Error("int attr lost")
	}
	if s, _ := got.Attr(1)["name"].AsString(); s != "two words" {
		t.Errorf("quoted attr = %q", s)
	}
	if r, _ := got.Attr(1)["rate"].AsFloat(); r != 4.5 {
		t.Error("float attr lost")
	}
}

func TestPatternRoundTripFixtures(t *testing.T) {
	for _, c := range fixtures.All() {
		var buf bytes.Buffer
		if err := WritePattern(&buf, c.P); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		got, err := ReadPattern(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.Name, err, buf.String())
		}
		if got.String() != c.P.String() {
			t.Errorf("%s: round trip mismatch\n got %s\nwant %s", c.Name, got.String(), c.P.String())
		}
	}
}

func TestGraphRoundTripFixtures(t *testing.T) {
	for _, c := range fixtures.All() {
		var buf bytes.Buffer
		if err := WriteGraph(&buf, c.G); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		got, err := ReadGraph(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got.N() != c.G.N() || got.M() != c.G.M() {
			t.Errorf("%s: size mismatch", c.Name)
		}
		we, ge := c.G.EdgeList(), got.EdgeList()
		for i := range we {
			if we[i] != ge[i] {
				t.Errorf("%s: edge %d differs", c.Name, i)
			}
		}
		for v := 0; v < got.N(); v++ {
			if got.Attr(v).String() != c.G.Attr(v).String() {
				t.Errorf("%s: node %d attrs differ: %q vs %q", c.Name, v, got.Attr(v), c.G.Attr(v))
			}
		}
	}
}

func TestUpdatesRoundTrip(t *testing.T) {
	ups := []incremental.Update{incremental.Ins(1, 2), incremental.Del(3, 4), incremental.Ins(0, 5)}
	var buf bytes.Buffer
	if err := WriteUpdates(&buf, ups); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUpdates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range ups {
		if got[i] != ups[i] {
			t.Errorf("update %d: %v vs %v", i, got[i], ups[i])
		}
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
graph 2

edge 0 1
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Error("comment handling broke parsing")
	}
}

func TestGraphParseErrors(t *testing.T) {
	cases := []string{
		"",                            // no header
		"graph x",                     // bad count
		"node 0 a=1\ngraph 2",         // node before header
		"graph 1\nnode 5 a=1",         // id out of range
		"graph 1\nnode 0 noequals",    // bad attr
		"graph 2\nedge 0 9",           // endpoint out of range
		"graph 2\nedge 0 1\nedge 0 1", // duplicate edge
		"graph 2\nwhat 1",             // unknown directive
		"graph 2\ngraph 2",            // duplicate header
		"graph 2\nedge 0",             // short edge
		"edge 0 1",                    // edge before header
	}
	for _, in := range cases {
		if _, err := ReadGraph(strings.NewReader(in)); err == nil {
			t.Errorf("ReadGraph(%q) should fail", in)
		}
	}
}

func TestPatternParseErrors(t *testing.T) {
	cases := []string{
		"",
		"pattern 0",
		"pattern 2\nnode 9 *",
		"pattern 2\nnode 0 bad attr <",
		"pattern 2\nedge 0 1 0",
		"pattern 2\nedge 0 1",
		"pattern 2\nedge 0 9 1",
		"pattern 2\nedge 0 1 1\nedge 0 1 2",
		"node 0 *",
		"pattern 2\nnope",
	}
	for _, in := range cases {
		if _, err := ReadPattern(strings.NewReader(in)); err == nil {
			t.Errorf("ReadPattern(%q) should fail", in)
		}
	}
}

func TestUpdatesParseErrors(t *testing.T) {
	for _, in := range []string{"x 1 2", "+ 1", "+ a b"} {
		if _, err := ReadUpdates(strings.NewReader(in)); err == nil {
			t.Errorf("ReadUpdates(%q) should fail", in)
		}
	}
}

func TestQuotedPredicateSurvives(t *testing.T) {
	p := pattern.New()
	pred, err := pattern.ParsePredicate(`category = "Travel & Places" && ratings < 30`)
	if err != nil {
		t.Fatal(err)
	}
	p.AddNode(pred)
	p.AddNode(pattern.Predicate{})
	p.MustAddEdge(0, 1, pattern.Unbounded)
	var buf bytes.Buffer
	if err := WritePattern(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPattern(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if got.Pred(0).String() != p.Pred(0).String() {
		t.Errorf("predicate mangled: %q vs %q", got.Pred(0).String(), p.Pred(0).String())
	}
	if got.EdgeAt(0).Bound != pattern.Unbounded {
		t.Error("star bound lost")
	}
}

func TestRangedPatternRoundTrip(t *testing.T) {
	p := pattern.New()
	p.AddNode(pattern.Label("A"))
	p.AddNode(pattern.Label("B"))
	if _, err := p.AddRangeEdge(0, 1, 2, 6, "friend"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePattern(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2..6") {
		t.Fatalf("range bound missing: %s", buf.String())
	}
	got, err := ReadPattern(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	e := got.EdgeAt(0)
	if e.MinBound != 2 || e.Bound != 6 || e.Color != "friend" {
		t.Errorf("round trip edge = %+v", e)
	}
	// Bad ranges rejected by the parser.
	if _, err := ReadPattern(strings.NewReader("pattern 2\nedge 0 1 1..5")); err == nil {
		t.Error("lo=1 range accepted")
	}
}

// A node line larger than bufio.Scanner's default 64 KiB token limit
// must round-trip: the readers grow the scanner buffer (newScanner), so
// graphs whose nodes carry many attributes — exactly what a server
// accepting uploads will see — don't fail with bufio.ErrTooLong.
func TestLongLineRoundTrip(t *testing.T) {
	g := graph.New(2)
	attrs := graph.Attrs{}
	for i := 0; i < 1500; i++ {
		attrs[fmt.Sprintf("attr%04d", i)] = value.Str(strings.Repeat("v", 40))
	}
	g.SetAttr(0, attrs)
	g.AddEdge(0, 1)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if longest := longestLine(buf.Bytes()); longest <= 64*1024 {
		t.Fatalf("fixture too small to exercise the bug: longest line %d bytes, need > %d", longest, 64*1024)
	}
	got, err := ReadGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadGraph on >64KiB line: %v", err)
	}
	if got.N() != 2 || got.M() != 1 {
		t.Fatalf("size %d/%d after long-line round trip", got.N(), got.M())
	}
	if len(got.Attr(0)) != len(attrs) {
		t.Fatalf("attribute count %d, want %d", len(got.Attr(0)), len(attrs))
	}
	var second bytes.Buffer
	if err := WriteGraph(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), second.Bytes()) {
		t.Fatal("long-line round trip is not byte-stable")
	}
}

// A long pattern node line (one predicate with many conjuncts) must
// round-trip the same way.
func TestLongPatternLineRoundTrip(t *testing.T) {
	p := pattern.New()
	var pred pattern.Predicate
	for i := 0; i < 4000; i++ {
		pred = append(pred, pattern.Atom{Attr: fmt.Sprintf("attr%04d", i), Op: value.OpEQ, Val: value.Str(strings.Repeat("v", 10))})
	}
	p.AddNode(pred)
	var buf bytes.Buffer
	if err := WritePattern(&buf, p); err != nil {
		t.Fatal(err)
	}
	if longest := longestLine(buf.Bytes()); longest <= 64*1024 {
		t.Fatalf("fixture too small: longest line %d bytes", longest)
	}
	got, err := ReadPattern(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadPattern on >64KiB line: %v", err)
	}
	if got.N() != 1 || len(got.Pred(0)) != len(pred) {
		t.Fatalf("pattern %d nodes / %d atoms after round trip", got.N(), len(got.Pred(0)))
	}
}

func longestLine(b []byte) int {
	longest := 0
	for _, l := range bytes.Split(b, []byte("\n")) {
		if len(l) > longest {
			longest = len(l)
		}
	}
	return longest
}

// Parsing a short pattern must not pay for a long-line buffer: the
// scanner starts small and grows only when a line needs it.
func TestReadPatternAllocatesLittle(t *testing.T) {
	const text = "pattern 3\nnode 0 label = A\nnode 1 label = B\nedge 0 1 2\nedge 1 2 *\n"
	if _, err := ReadPattern(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ReadPattern(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 8<<10 {
		t.Fatalf("ReadPattern of a 5-line pattern allocates %d B/op, want < 8 KiB", perOp)
	}
}
