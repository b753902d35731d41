package gpm

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// edgeGraphs builds the degenerate data graphs every entry point must
// survive: the zero-node graph, a single attributed node, and a minimal
// two-node graph with one edge.
func edgeGraphs() map[string]*Graph {
	g0 := NewGraph(0)
	g1 := NewGraph(1)
	g1.SetAttr(0, Attrs{"label": Str("A")})
	g2 := NewGraph(2)
	g2.SetAttr(0, Attrs{"label": Str("A")})
	g2.SetAttr(1, Attrs{"label": Str("B")})
	g2.AddEdge(0, 1)
	return map[string]*Graph{"empty": g0, "single": g1, "pair": g2}
}

// TestEngineRejectsEmptyPattern pins the empty-pattern contract across
// every Engine entry point: the zero-node pattern is a validation error
// ("pattern: no nodes"), never a panic and never a vacuous match. Before
// this audit Enumerate was the one inconsistent entry point — it searched
// the empty pattern and returned a single empty embedding while every
// other semantics rejected it; a server routing untrusted queries to all
// six endpoints needs them to agree.
func TestEngineRejectsEmptyPattern(t *testing.T) {
	ctx := context.Background()
	empty := NewPattern()
	for gname, g := range edgeGraphs() {
		t.Run(gname, func(t *testing.T) {
			eng := NewEngine(g.Clone())
			calls := map[string]func() error{
				"Enumerate": func() error {
					_, err := eng.Enumerate(ctx, empty, IsoOptions{})
					return err
				},
				"MatchBatch": func() error {
					_, err := eng.MatchBatch(ctx, []*Pattern{empty})
					return err
				},
				"Watch":       func() error { _, err := eng.Watch(empty); return err },
				"WatchSim":    func() error { _, err := eng.WatchSim(empty); return err },
				"WatchDual":   func() error { _, err := eng.WatchDual(empty); return err },
				"WatchStrong": func() error { _, err := eng.WatchStrong(empty); return err },
			}
			for _, sem := range []RelSemantics{RelMatch, RelSim, RelDual, RelStrong} {
				calls["RelationQuery/"+sem.String()] = func() error {
					_, err := eng.RelationQuery(ctx, RelationQuery{Semantics: sem, Pattern: empty})
					return err
				}
			}
			for name, call := range calls {
				err := call()
				if err == nil {
					t.Errorf("%s accepted the empty pattern", name)
				} else if !strings.Contains(err.Error(), "no nodes") {
					t.Errorf("%s rejected the empty pattern with %q, want the validation error", name, err)
				}
			}
		})
	}
}

// TestEngineEdgeCases audits every query entry point against the
// zero-node graph and minimal graphs, under every oracle strategy
// (the auto heuristic resolves |V|=0 to a matrix, so |V|=0 oracle and
// index builds are on this audit's hot path). Contract: no panics;
// a pattern node with no candidates yields OK == false with an empty
// relation; result graphs materialise everywhere.
func TestEngineEdgeCases(t *testing.T) {
	ctx := context.Background()
	p := NewPattern()
	a := p.AddNode(Label("A"))
	b := p.AddNode(Label("B"))
	p.MustAddEdge(a, b, 1)

	for gname, g := range edgeGraphs() {
		for _, kind := range []OracleKind{OracleMatrix, OracleBFS, OracleTwoHop, OracleAuto} {
			t.Run(fmt.Sprintf("%s/%s", gname, kind), func(t *testing.T) {
				g := g.Clone()
				eng := NewEngine(g, WithOracle(kind))
				wantOK := gname == "pair" // needs A -> B

				for _, sem := range []RelSemantics{RelMatch, RelSim, RelDual, RelStrong} {
					res, err := eng.RelationQuery(ctx, RelationQuery{Semantics: sem, Pattern: p})
					if err != nil {
						t.Fatalf("%v: %v", sem, err)
					}
					if res.OK != wantOK {
						t.Errorf("%v OK = %v, want %v", sem, res.OK, wantOK)
					}
					if !wantOK && sem == RelMatch && res.Pairs() != 0 {
						t.Errorf("failed match still holds %d pairs", res.Pairs())
					}
					if rg := eng.ResultGraph(p, res); rg == nil {
						t.Errorf("ResultGraph(%v) returned nil", sem)
					}
				}

				batch, err := eng.MatchBatch(ctx, []*Pattern{p, p})
				if err != nil {
					t.Fatalf("MatchBatch: %v", err)
				}
				for i, r := range batch {
					if r.OK != wantOK {
						t.Errorf("MatchBatch[%d] OK = %v, want %v", i, r.OK, wantOK)
					}
				}
				if _, err := eng.MatchBatch(ctx, nil); err != nil {
					t.Errorf("MatchBatch(nil): %v", err)
				}

				enum, err := eng.Enumerate(ctx, p, IsoOptions{MaxEmbeddings: 4})
				if err != nil {
					t.Fatalf("Enumerate: %v", err)
				}
				wantEmb := 0
				if wantOK {
					wantEmb = 1
				}
				if len(enum.Embeddings) != wantEmb {
					t.Errorf("Enumerate found %d embeddings, want %d", len(enum.Embeddings), wantEmb)
				}
			})
		}
	}
}

// TestEngineEdgeCaseWatchers pins watcher behavior on degenerate graphs
// and after Close: every watch semantics binds to the zero-node graph
// without panicking, a closed watcher still answers reads from its last
// maintained state but receives no further deltas, and Close is
// idempotent.
func TestEngineEdgeCaseWatchers(t *testing.T) {
	p := NewPattern()
	p.AddNode(Label("A"))

	for gname, g := range edgeGraphs() {
		t.Run(gname, func(t *testing.T) {
			g := g.Clone()
			eng := NewEngine(g)
			watchers := map[string]*Watcher{}
			var err error
			if watchers["match"], err = eng.Watch(p); err != nil {
				t.Fatalf("Watch: %v", err)
			}
			if watchers["sim"], err = eng.WatchSim(p); err != nil {
				t.Fatalf("WatchSim: %v", err)
			}
			if watchers["dual"], err = eng.WatchDual(p); err != nil {
				t.Fatalf("WatchDual: %v", err)
			}
			if watchers["strong"], err = eng.WatchStrong(p); err != nil {
				t.Fatalf("WatchStrong: %v", err)
			}
			wantOK := gname != "empty" // any graph with an A node
			for sem, w := range watchers {
				if w.OK() != wantOK {
					t.Errorf("%s watcher OK = %v, want %v", sem, w.OK(), wantOK)
				}
				w.Relation()
				w.Mat(0)
			}

			// An empty update batch is a no-op that still reports one
			// delta per open watcher.
			deltas, err := eng.Update()
			if err != nil {
				t.Fatalf("Update(): %v", err)
			}
			if len(deltas) != len(watchers) {
				t.Errorf("Update(): %d deltas, want %d", len(deltas), len(watchers))
			}

			// Out-of-range updates are validation errors, not panics, and
			// leave the graph unchanged — the server feeds untrusted update
			// streams straight into this path.
			if _, err := eng.Update(InsertEdge(g.N()+3, 0)); err == nil {
				t.Error("Update accepted an out-of-range insertion")
			}
			if _, err := eng.Update(DeleteEdge(-1, 0)); err == nil {
				t.Error("Update accepted a negative endpoint")
			}

			// Close one watcher: reads still answer, deltas stop, and a
			// second Close is a no-op.
			w := watchers["sim"]
			w.Close()
			w.Close()
			if w.OK() != wantOK {
				t.Errorf("closed watcher OK = %v, want %v", w.OK(), wantOK)
			}
			w.Pairs()
			w.Mat(0)
			w.Relation()
			deltas, err = eng.Update()
			if err != nil {
				t.Fatalf("Update() after Close: %v", err)
			}
			if len(deltas) != len(watchers)-1 {
				t.Errorf("Update() after Close: %d deltas, want %d", len(deltas), len(watchers)-1)
			}
			for _, d := range deltas {
				if d.Watcher == w {
					t.Error("closed watcher still receives deltas")
				}
			}
			for _, o := range watchers {
				o.Close()
			}
		})
	}
}
