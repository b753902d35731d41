package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gpm/internal/core"
	"gpm/internal/simulation"
)

// Bounded simulation with all bounds 1 coincides with HHK simulation
// (§2.2 remark 2): Fig. 4's probing Match and the kernel's oracle-free
// simulation mode both equal the naive simulation rescan.
func TestBoundOneEqualsPlainSimulation(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := core.RandomLabeledGraph(r, 1+r.Intn(12), r.Intn(25), 3)
		p := core.RandomPattern(r, 1+r.Intn(4), r.Intn(6), 3, 1, false)
		want, wantOK, err := simulation.RunNaive(p, g.Freeze())
		if err != nil {
			return false
		}
		res, err := core.Match(p, g)
		if err != nil {
			return false
		}
		sim, simOK, err := simulation.RunFrozen(context.Background(), p, g.Freeze())
		if err != nil {
			return false
		}
		return res.OK() == wantOK && reflect.DeepEqual(res.Relation(), want) &&
			simOK == wantOK && reflect.DeepEqual(sim, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
