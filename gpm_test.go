package gpm_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gpm"
	"gpm/internal/core"
)

// buildTriangle returns a small labeled graph A->B->C->A.
func buildTriangle() *gpm.Graph {
	g := gpm.NewGraph(0)
	for _, l := range []string{"A", "B", "C"} {
		g.AddNode(gpm.Attrs{"label": gpm.Str(l)})
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	return g
}

func TestPublicMatch(t *testing.T) {
	g := buildTriangle()
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	c := p.AddNode(gpm.Label("C"))
	p.MustAddEdge(a, c, 2)
	res, err := gpm.NewEngine(g).RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Pairs() != 2 {
		t.Fatalf("ok=%v pairs=%d", res.OK, res.Pairs())
	}
	if got := res.Relation[c]; len(got) != 1 || got[0] != 2 {
		t.Errorf("Relation[c] = %v", got)
	}
}

func TestPublicOracleVariants(t *testing.T) {
	g := buildTriangle()
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	b := p.AddNode(gpm.Label("B"))
	p.MustAddEdge(a, b, gpm.Unbounded)
	for name, f := range map[string]func(*gpm.Pattern, *gpm.Graph) (*core.Result, error){
		"match": core.Match, "bfs": core.MatchBFS, "2hop": core.Match2Hop,
	} {
		res, err := f(p, g)
		if err != nil || !res.OK() {
			t.Errorf("%s: ok=%v err=%v", name, res.OK(), err)
		}
	}
	for name, o := range map[string]core.DistOracle{
		"matrix": core.BuildMatrixOracle(g), "bfs": core.NewBFSOracle(g), "2hop": core.BuildTwoHopOracle(g),
	} {
		res, err := core.MatchWithOracle(p, g, o)
		if err != nil || !res.OK() {
			t.Errorf("oracle %s failed", name)
		}
	}
}

func TestPublicSimulateAndIso(t *testing.T) {
	g := buildTriangle()
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	b := p.AddNode(gpm.Label("B"))
	p.MustAddEdge(a, b, 1)
	ctx := context.Background()
	eng := gpm.NewEngine(g)
	sim, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelSim, Pattern: p})
	if err != nil || !sim.OK || len(sim.Relation) != 2 {
		t.Fatalf("sim: %+v %v", sim, err)
	}
	for _, algo := range []gpm.EnumAlgo{gpm.AlgoVF2, gpm.AlgoUllmann} {
		e, err := eng.Enumerate(ctx, p, gpm.IsoOptions{Algo: algo, NoPlan: true})
		if err != nil || len(e.Embeddings) != 1 {
			t.Errorf("%v embeddings = %d, err %v", algo, len(e.Embeddings), err)
		}
	}
}

func TestPublicIncremental(t *testing.T) {
	g := buildTriangle()
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	c := p.AddNode(gpm.Label("C"))
	p.MustAddEdge(a, c, 1)
	eng := gpm.NewEngine(g)
	w, err := eng.Watch(p)
	if err != nil {
		t.Fatal(err)
	}
	if w.OK() {
		t.Fatal("A->C in one hop should not hold on the triangle")
	}
	deltas, err := eng.Update(gpm.InsertEdge(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !w.OK() || len(deltas) != 1 || len(deltas[0].Delta.Added) == 0 {
		t.Errorf("insertion should create the match: %+v", deltas)
	}
	deltas, err = eng.Update(gpm.DeleteEdge(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if w.OK() || len(deltas) != 1 || len(deltas[0].Delta.Removed) == 0 {
		t.Errorf("deletion should destroy the match: %+v", deltas)
	}
}

func TestPublicIO(t *testing.T) {
	g := buildTriangle()
	var buf bytes.Buffer
	if err := gpm.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := gpm.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 3 || g2.M() != 3 {
		t.Error("graph round trip lost data")
	}
	p := gpm.NewPattern()
	p.AddNode(gpm.Label("A"))
	pred, err := gpm.ParsePredicate("views >= 700 && category = Music")
	if err != nil {
		t.Fatal(err)
	}
	p.AddNode(pred)
	p.MustAddEdge(0, 1, gpm.Unbounded)
	buf.Reset()
	if err := gpm.WritePattern(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := gpm.ReadPattern(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.String() != p.String() {
		t.Errorf("pattern round trip: %q vs %q", p2.String(), p.String())
	}
	buf.Reset()
	ups := []gpm.Update{gpm.InsertEdge(0, 1), gpm.DeleteEdge(1, 2)}
	if err := gpm.WriteUpdates(&buf, ups); err != nil {
		t.Fatal(err)
	}
	ups2, err := gpm.ReadUpdates(&buf)
	if err != nil || len(ups2) != 2 {
		t.Errorf("updates round trip: %v %v", ups2, err)
	}
}

func TestPublicGeneratorsAndDatasets(t *testing.T) {
	g := gpm.GenerateGraph(gpm.GraphGenConfig{Nodes: 50, Edges: 120, Attrs: 5, Model: gpm.ModelPowerLaw, Seed: 3})
	if g.N() != 50 || g.M() != 120 {
		t.Fatalf("generated %d/%d", g.N(), g.M())
	}
	p := gpm.GeneratePattern(gpm.PatternGenConfig{Nodes: 3, Edges: 3, K: 3, Seed: 3}, g)
	if p.N() != 3 {
		t.Fatal("pattern size")
	}
	ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{Insertions: 5, Deletions: 5, Seed: 3}, g)
	if len(ups) != 10 {
		t.Fatalf("updates = %d", len(ups))
	}
	ds, err := gpm.Dataset("matter", 1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if st := gpm.Stats(ds); st.Nodes == 0 || st.Edges == 0 {
		t.Error("empty dataset")
	}
	if _, err := gpm.Dataset("nope", 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestPublicResultGraph(t *testing.T) {
	g := buildTriangle()
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	c := p.AddNode(gpm.Label("C"))
	p.MustAddEdge(a, c, 2)
	eng := gpm.NewEngine(g)
	res, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil {
		t.Fatal(err)
	}
	rg := eng.ResultGraph(p, res)
	n, e := rg.Size()
	if n != 2 || e != 1 {
		t.Errorf("result graph %d/%d", n, e)
	}
	if !strings.Contains(rg.String(), "path length 2") {
		t.Errorf("render: %s", rg.String())
	}
}

func TestDocExample(t *testing.T) {
	// The package-comment example, kept honest.
	g := gpm.NewGraph(3)
	g.SetAttr(0, gpm.Attrs{"label": gpm.Str("A")})
	g.SetAttr(1, gpm.Attrs{"label": gpm.Str("B")})
	g.SetAttr(2, gpm.Attrs{"label": gpm.Str("C")})
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	p := gpm.NewPattern()
	a := p.AddNode(gpm.Label("A"))
	c := p.AddNode(gpm.Label("C"))
	p.MustAddEdge(a, c, 2)
	eng := gpm.NewEngine(g)
	res, err := eng.RelationQuery(context.Background(), gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil || !res.OK {
		t.Fatalf("doc example broken: %v %v", res, err)
	}
	if got := res.Relation[c]; len(got) != 1 || got[0] != 2 {
		t.Errorf("doc example Relation[c] = %v", got)
	}
}

func TestPublicRangeEdge(t *testing.T) {
	// The §6 "ranges on hops" extension: lower and upper walk bounds.
	g := gpm.NewGraph(0)
	a := g.AddNode(gpm.Attrs{"label": gpm.Str("A")})
	mid := g.AddNode(nil)
	b := g.AddNode(gpm.Attrs{"label": gpm.Str("B")})
	g.AddEdge(a, mid)
	g.AddEdge(mid, b)
	g.AddEdge(a, b) // direct edge, too short for the range

	p := gpm.NewPattern()
	pa := p.AddNode(gpm.Label("A"))
	pb := p.AddNode(gpm.Label("B"))
	if _, err := p.AddRangeEdge(pa, pb, 2, 4, ""); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := gpm.NewEngine(g)
	res, err := eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p})
	if err != nil || !res.OK {
		t.Fatalf("range match: ok=%v err=%v", res.OK, err)
	}
	if _, err := eng.Update(gpm.DeleteEdge(mid, b)); err != nil {
		t.Fatal(err)
	}
	if res, err = eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: gpm.RelMatch, Pattern: p}); err != nil || res.OK {
		t.Errorf("only the too-short direct edge remains; range must fail (err %v)", err)
	}
	// Incremental matching declines ranged patterns explicitly.
	if _, err := eng.Watch(p); err == nil {
		t.Error("incremental matcher should reject ranged patterns")
	}
}
