package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a configuration that keeps every experiment under a
// second or two, for smoke-testing the harness itself.
func tiny() Config {
	return Config{Scale: 0.02, Patterns: 2, SynthNodes: 250, VF2MaxEmb: 200, VF2MaxStep: 100_000}
}

func checkTable(t *testing.T, tbl *Table, wantRows int) {
	t.Helper()
	if tbl == nil {
		t.Fatal("nil table")
	}
	if len(tbl.Rows) < wantRows {
		t.Fatalf("%s: %d rows, want >= %d (notes: %v)", tbl.ID, len(tbl.Rows), wantRows, tbl.Notes)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Errorf("%s row %d: %d cells for %d columns", tbl.ID, i, len(row), len(tbl.Columns))
		}
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	if !strings.Contains(buf.String(), tbl.ID) {
		t.Errorf("%s: render missing id", tbl.ID)
	}
}

func TestDatasetsTable(t *testing.T) { checkTable(t, Datasets(tiny()), 3) }
func TestFig6aTable(t *testing.T)    { checkTable(t, Fig6a(tiny()), 2) }
func TestFig6dTable(t *testing.T)    { checkTable(t, Fig6d(tiny()), 8) }
func TestFig6eTable(t *testing.T)    { checkTable(t, Fig6e(tiny()), 6) }
func TestFig6fTable(t *testing.T)    { checkTable(t, Fig6fgh(tiny(), 1), 7) }
func TestFig6iTable(t *testing.T)    { checkTable(t, Fig6i(tiny()), 8) }
func TestFig6jTable(t *testing.T)    { checkTable(t, Fig6j(tiny()), 8) }
func TestFig6kTable(t *testing.T)    { checkTable(t, Fig6k(tiny()), 8) }
func TestFig9Table(t *testing.T)     { checkTable(t, Fig9(tiny()), 5) }
func TestGrStatsTable(t *testing.T)  { checkTable(t, GrStats(tiny()), 1) }
func TestAffStatsTable(t *testing.T) { checkTable(t, AffStats(tiny()), 1) }
func TestTwoHopTable(t *testing.T)   { checkTable(t, TwoHopStats(tiny()), 3) }
func TestAblationTable(t *testing.T) { checkTable(t, Ablation(tiny()), 2) }
func TestPlanTable(t *testing.T)     { checkTable(t, PlanSpeedup(tiny()), 4) }
func TestOracleTable(t *testing.T)   { checkTable(t, OracleStats(tiny()), 12) }

// The million experiment's PLL == BFS gate must hold and be visible in
// the table even at smoke scale (floor 2K nodes).
func TestMillionTable(t *testing.T) {
	cfg := tiny()
	cfg.Scale = 0.002
	tbl := Million(cfg)
	checkTable(t, tbl, 13)
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "PLL == BFS checksums" {
			found = true
			if row[1] != "true" {
				t.Errorf("PLL relations diverged from the BFS reference: %v", tbl.Notes)
			}
		}
	}
	if !found {
		t.Error("million table missing the checksum gate row")
	}
}

func TestFig6bc(t *testing.T) {
	b, c := Fig6bc(tiny())
	checkTable(t, b, 6)
	checkTable(t, c, 6)
}

func TestByID(t *testing.T) {
	cfg := tiny()
	for _, id := range []string{"datasets", "6b", "6c", "gr"} {
		ts, err := ByID(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(ts) == 0 {
			t.Errorf("%s: no tables", id)
		}
	}
	if _, err := ByID("bogus", cfg); err == nil {
		t.Error("bogus id accepted")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale <= 0 || c.Patterns <= 0 || c.SynthNodes <= 0 || c.Seed == 0 {
		t.Errorf("defaults incomplete: %+v", c)
	}
}

func TestProgressLogging(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Progress = &buf
	Datasets(cfg)
	cfg.logf("hello %d", 7)
	if !strings.Contains(buf.String(), "hello 7") {
		t.Error("progress writer unused")
	}
}
