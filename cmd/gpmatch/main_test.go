package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Golden-file coverage of every -semantics value against the tiny
// fixture: a 6-cycle that dual-matches a triangle pattern but strongly
// does not, plus a genuine triangle every semantics accepts. The output
// format is CLI contract — regressions fail here instead of silently
// breaking downstream consumers.
func TestGoldenSemantics(t *testing.T) {
	cases := []struct {
		name       string
		semantics  string
		showResult bool
		showPlan   bool
		count      bool
		noPlan     bool
	}{
		{name: "match", semantics: "match", showResult: true},
		{name: "sim", semantics: "sim"},
		{name: "dual", semantics: "dual", showResult: true},
		{name: "strong", semantics: "strong", showResult: true},
		{name: "vf2", semantics: "vf2"},
		{name: "ullmann", semantics: "ullmann"},
		{name: "iso", semantics: "iso"},
		{name: "iso-plan", semantics: "iso", showPlan: true},
		{name: "iso-count", semantics: "iso", count: true},
		{name: "iso-noplan", semantics: "iso", noPlan: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(&buf, filepath.Join("testdata", "tiny.graph"), filepath.Join("testdata", "tiny.pattern"),
				tc.semantics, tc.showResult, 100, false, 0, tc.showPlan, tc.count, tc.noPlan)
			if err != nil {
				t.Fatalf("run(%s): %v", tc.semantics, err)
			}
			goldenPath := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output diverges from %s\n--- got ---\n%s\n--- want ---\n%s", goldenPath, buf.String(), want)
			}
		})
	}
}

// Unknown semantics must error, not fall through to a default.
func TestUnknownSemantics(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, filepath.Join("testdata", "tiny.graph"), filepath.Join("testdata", "tiny.pattern"),
		"nonsense", false, 100, false, 0, false, false, false)
	if err == nil {
		t.Fatal("run accepted unknown semantics")
	}
}

// -plan/-count/-noplan are enumeration-only flags.
func TestEnumFlagsRejectedElsewhere(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, filepath.Join("testdata", "tiny.graph"), filepath.Join("testdata", "tiny.pattern"),
		"match", false, 100, false, 0, false, true, false)
	if err == nil {
		t.Fatal("run accepted -count with -semantics match")
	}
}
