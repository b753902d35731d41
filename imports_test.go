package gpm_test

import (
	"go/build"
	"slices"
	"testing"
)

// TestEngineImportsNoIndex: the engine builds and probes no distance
// oracle, so the root package imports neither labelling. An index path
// that crept back into the engine would have to import one of them.
// Test files are not counted: they may build an index as a referee.
func TestEngineImportsNoIndex(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Imports) == 0 {
		t.Fatal("no imports found: the test reads the wrong directory")
	}
	for _, banned := range []string{"gpm/internal/pll", "gpm/internal/twohop"} {
		if slices.Contains(pkg.Imports, banned) {
			t.Errorf("package gpm imports %s", banned)
		}
	}
}
