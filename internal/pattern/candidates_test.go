package pattern

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"gpm/internal/cancel"
	"gpm/internal/graph"
	"gpm/internal/value"
)

// Candidates is the full scan, faster: same nodes, ascending, whatever
// mix of indexable, unindexable and contradictory atoms the predicate
// holds.
func TestCandidatesEqualsScan(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := graph.New(0)
	for i := 0; i < 400; i++ {
		a := graph.Attrs{"cat": value.Str(string(rune('a' + r.Intn(5)))), "n": value.Int(int64(r.Intn(100)))}
		if r.Intn(4) == 0 {
			a["mixed"] = value.Str("x")
		} else {
			a["mixed"] = value.Int(int64(r.Intn(3)))
		}
		g.AddNode(a)
	}
	for i := 0; i < 600; i++ {
		g.AddEdge(r.Intn(400), r.Intn(400))
	}
	f := g.Freeze()
	preds := []Predicate{
		nil,
		Label("nobody"),
		{{Attr: "cat", Op: value.OpEQ, Val: value.Str("c")}},
		{{Attr: "n", Op: value.OpGE, Val: value.Int(30)}, {Attr: "n", Op: value.OpLE, Val: value.Int(45)}},
		{{Attr: "cat", Op: value.OpEQ, Val: value.Str("b")}, {Attr: "n", Op: value.OpGT, Val: value.Float(49.5)}, {Attr: "n", Op: value.OpLT, Val: value.Int(80)}},
		{{Attr: "n", Op: value.OpGE, Val: value.Int(60)}, {Attr: "n", Op: value.OpLE, Val: value.Int(40)}}, // empty window
		{{Attr: "n", Op: value.OpNE, Val: value.Int(7)}},
		{{Attr: "n", Op: value.OpNE, Val: value.Int(7)}, {Attr: "cat", Op: value.OpLE, Val: value.Str("b")}},
		{{Attr: "mixed", Op: value.OpEQ, Val: value.Int(1)}},
		{{Attr: "mixed", Op: value.OpEQ, Val: value.Int(1)}, {Attr: "cat", Op: value.OpGE, Val: value.Str("d")}},
		{{Attr: "n", Op: value.OpEQ, Val: value.Str("7")}}, // incomparable constant
		{{Attr: "absent", Op: value.OpEQ, Val: value.Int(1)}},
	}
	poll := cancel.Every(context.Background(), 1)
	for pi, pred := range preds {
		for _, needsOut := range []bool{false, true} {
			var want []int32
			for x := 0; x < f.N(); x++ {
				if !(needsOut && f.OutDegree(x) == 0) && pred.Match(f.Attr(x)) {
					want = append(want, int32(x))
				}
			}
			got, err := Candidates(f, pred, needsOut, &poll)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("predicate %d (%s) needsOut=%v: %d candidates, scan finds %d", pi, pred, needsOut, len(got), len(want))
			}
		}
	}
}

func TestCandidatesCancelled(t *testing.T) {
	g := graph.New(0)
	for i := 0; i < 50; i++ {
		g.AddNode(graph.Attrs{"label": value.Str("A")})
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	cancelCtx()
	poll := cancel.Every(ctx, 10)
	for _, pred := range []Predicate{nil, Label("A")} {
		if got, err := Candidates(g.Freeze(), pred, false, &poll); !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("%s: got %v, %v; want nil, context.Canceled", pred, got, err)
		}
	}
}
