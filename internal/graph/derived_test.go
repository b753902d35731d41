package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gpm/internal/value"
)

// The condensation numbers components in reverse topological order,
// groups every node exactly once, and flags exactly the components whose
// members lie on a cycle; mutual reachability (checked by BFS) decides
// membership.
func TestCondensation(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(r.Intn(n), r.Intn(n)) // self-loops included
		}
		f := g.Freeze()
		c := f.Condensation()
		if c != f.Condensation() {
			t.Fatal("condensation is not cached on the snapshot")
		}
		reach := make([][]int32, n)
		for v := 0; v < n; v++ {
			reach[v] = g.BFSDist(v)
		}
		seen := make([]bool, n)
		for id := 0; id < c.Components(); id++ {
			nodes := c.Nodes(id)
			for _, v := range nodes {
				if seen[v] {
					t.Fatalf("seed %d: node %d in two components", seed, v)
				}
				seen[v] = true
				if c.Of(int(v)) != int32(id) {
					t.Fatalf("seed %d: Of(%d) = %d, listed under %d", seed, v, c.Of(int(v)), id)
				}
			}
			wantCyclic := len(nodes) > 1 || g.HasEdge(int(nodes[0]), int(nodes[0]))
			if c.Cyclic(id) != wantCyclic {
				t.Fatalf("seed %d: component %v cyclic = %v, want %v", seed, nodes, c.Cyclic(id), wantCyclic)
			}
		}
		for u := 0; u < n; u++ {
			if !seen[u] {
				t.Fatalf("seed %d: node %d in no component", seed, u)
			}
			for v := 0; v < n; v++ {
				mutual := reach[u][v] >= 0 && reach[v][u] >= 0
				if same := c.Of(u) == c.Of(v); same != mutual {
					t.Fatalf("seed %d: nodes %d, %d same component = %v, mutually reachable = %v", seed, u, v, same, mutual)
				}
			}
			for _, v := range f.Out(u) {
				if c.Of(u) < c.Of(int(v)) {
					t.Fatalf("seed %d: edge %d→%d leads from component %d up to %d", seed, u, v, c.Of(u), c.Of(int(v)))
				}
			}
		}
	}
}

func TestCondensationConcurrentFirstUse(t *testing.T) {
	f := randomFrozenTestGraph(t, 3, 200, 600).Freeze()
	var wg sync.WaitGroup
	got := make([]*Condensation, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = f.Condensation()
			f.AttrIndex("i")
		}()
	}
	wg.Wait()
	for _, c := range got {
		if c != got[0] {
			t.Fatal("concurrent first use built two condensations")
		}
	}
}

// Interval agrees with value.Op.Apply on every node, for every operator
// and for constants of every kind, on string, integer, float and
// int/float columns.
func TestAttrIndexIntervalMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := New(0)
	for i := 0; i < 300; i++ {
		a := Attrs{
			"s": value.Str(string(rune('a' + r.Intn(6)))),
			"i": value.Int(int64(r.Intn(40) - 20)),
			"f": value.Float(float64(r.Intn(40))/4 - 5),
		}
		if r.Intn(2) == 0 {
			a["mixed"] = value.Int(int64(r.Intn(10)))
		} else {
			a["mixed"] = value.Float(float64(r.Intn(20)) / 2)
		}
		if r.Intn(3) > 0 {
			a["sparse"] = value.Int(int64(r.Intn(5)))
		}
		g.AddNode(a)
	}
	f := g.Freeze()
	consts := []value.Value{
		value.Int(-21), value.Int(0), value.Int(3), value.Int(100), value.Int(math.MaxInt64),
		value.Float(-0.25), value.Float(2.5), value.Float(3), value.Float(math.Inf(1)),
		value.Str("c"), value.Str(""), value.Str("zz"),
	}
	ops := []value.Op{value.OpLT, value.OpLE, value.OpEQ, value.OpGE, value.OpGT}
	for _, attr := range []string{"s", "i", "f", "mixed", "sparse"} {
		idx := f.AttrIndex(attr)
		if idx == nil {
			t.Fatalf("column %q not indexed", attr)
		}
		for _, c := range consts {
			for _, op := range ops {
				lo, hi, ok := idx.Interval(op, c)
				if !ok {
					t.Fatalf("%s %v %v: no interval", attr, op, c)
				}
				in := map[int32]bool{}
				for _, x := range idx.IDs(lo, max(lo, hi)) {
					in[x] = true
				}
				for v := 0; v < f.N(); v++ {
					val, has := f.Attr(v)[attr]
					if want := has && op.Apply(val, c); want != in[int32(v)] {
						t.Fatalf("%s %v %v: node %d (%v) in interval = %v, Apply = %v", attr, op, c, v, val, in[int32(v)], want)
					}
				}
			}
		}
		if _, _, ok := idx.Interval(value.OpNE, consts[0]); ok {
			t.Errorf("%s: != answered from the index", attr)
		}
		if _, _, ok := idx.Interval(value.OpEQ, value.Float(math.NaN())); ok && attr != "s" {
			t.Errorf("%s: NaN constant answered from the index", attr)
		}
	}
}

// Columns on which value.Compare is not a total order stay unindexed.
func TestAttrIndexRefusesInhomogeneousColumns(t *testing.T) {
	g := New(0)
	g.AddNode(Attrs{"kinds": value.Str("a"), "nan": value.Float(1), "huge": value.Int(1 << 53), "ok": value.Int(1<<53 - 1)})
	g.AddNode(Attrs{"kinds": value.Int(1), "nan": value.Float(math.NaN()), "huge": value.Int(1), "ok": value.Float(2)})
	f := g.Freeze()
	for _, attr := range []string{"kinds", "nan", "huge", "absent"} {
		if f.AttrIndex(attr) != nil {
			t.Errorf("column %q indexed", attr)
		}
	}
	if f.AttrIndex("ok") == nil {
		t.Error("exactly representable int/float column not indexed")
	}
}

func TestSweepScratchPool(t *testing.T) {
	s := GetSweepScratch(100)
	if len(s.Seen) != 100 || len(s.Cur) != 100 || len(s.Next) != 100 {
		t.Fatalf("lengths %d %d %d, want 100", len(s.Seen), len(s.Cur), len(s.Next))
	}
	s.Seen[7], s.Cur[8], s.Next[9] = 1, 2, 3
	s.Seen[7], s.Cur[8], s.Next[9] = 0, 0, 0 // the holder's side of the contract
	s.Touched = append(s.Touched, 7)
	s.Put()
	for _, n := range []int{40, 100, 1000} {
		s = GetSweepScratch(n)
		if len(s.Seen) != n || len(s.Touched) != 0 {
			t.Fatalf("n=%d: len %d, touched %d", n, len(s.Seen), len(s.Touched))
		}
		for i := range s.Seen {
			if s.Seen[i]|s.Cur[i]|s.Next[i] != 0 {
				t.Fatalf("n=%d: entry %d not zero", n, i)
			}
		}
		s.Put()
	}
}
