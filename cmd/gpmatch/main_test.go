package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tiny returns the options for the tiny fixture under semantics.
func tiny(semantics string) options {
	return options{
		graphPath:   filepath.Join("testdata", "tiny.graph"),
		patternPath: filepath.Join("testdata", "tiny.pattern"),
		semantics:   semantics,
		limit:       100,
	}
}

// watching returns the options that watch the tiny fixture's relation
// under semantics through its update stream.
func watching(semantics string, chunk int, verify bool) options {
	o := tiny(semantics)
	o.updatesPath = filepath.Join("testdata", "tiny.updates")
	o.chunk, o.verify = chunk, verify
	return o
}

// durations scrubs wall-clock readings ("33.845µs", "1.2ms", "566ns")
// out of the watch output; everything else — chunk boundaries, deltas,
// AFF sizes, pair counts and relation checksums — is deterministic in the
// fixture and pinned by the goldens. The checksums also pin that the
// incremental relations themselves do not drift. The trailing-space run
// is scrubbed with the reading because the watch pads durations to a
// fixed column (%-12v), so the padding width varies with the reading's
// length.
var durations = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s|m|h)+ *`)

// checkGolden runs opts and compares its output with
// testdata/golden/<golden>.golden, or rewrites that file under -update.
// Watch output has its wall-clock readings scrubbed first.
func checkGolden(t *testing.T, golden string, opts options) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, opts); err != nil {
		t.Fatalf("run(%s): %v", golden, err)
	}
	got := buf.Bytes()
	if opts.updatesPath != "" {
		got = durations.ReplaceAll(got, []byte("T "))
	}
	goldenPath := filepath.Join("testdata", "golden", golden+".golden")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
}

// Golden-file coverage of every -semantics value against the tiny
// fixture: a 6-cycle that dual-matches a triangle pattern but strongly
// does not, plus a genuine triangle every semantics accepts. The output
// format is CLI contract — regressions fail here instead of silently
// breaking downstream consumers.
func TestGoldenSemantics(t *testing.T) {
	withResult := func(o options) options { o.showResult = true; return o }
	withPlan := func(o options) options { o.showPlan = true; return o }
	withCount := func(o options) options { o.count = true; return o }
	withNoPlan := func(o options) options { o.noPlan = true; return o }
	cases := []struct {
		name string
		opts options
	}{
		{"match", withResult(tiny("match"))},
		{"sim", tiny("sim")},
		{"dual", withResult(tiny("dual"))},
		{"strong", withResult(tiny("strong"))},
		{"vf2", tiny("vf2")},
		{"ullmann", tiny("ullmann")},
		{"iso", tiny("iso")},
		{"iso-plan", withPlan(tiny("iso"))},
		{"iso-count", withCount(tiny("iso"))},
		{"iso-noplan", withNoPlan(tiny("iso"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, tc.opts) })
	}
}

// Golden-file coverage of every watch: each relation semantics runs
// through the tiny fixture's update stream, which breaks the 6-cycle and
// the genuine triangle and then restores them, so dual survives
// throughout while strong loses and regains its pairs — each semantics
// shows its own delta trajectory. Goldens are watch-<semantics>.golden.
func TestWatchGoldenSemantics(t *testing.T) {
	for _, semantics := range []string{"match", "sim", "dual", "strong"} {
		t.Run(semantics, func(t *testing.T) {
			checkGolden(t, "watch-"+semantics, watching(semantics, 3, true))
		})
	}
}

// Unknown semantics must error, not fall through to a default.
func TestUnknownSemantics(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, tiny("nonsense")); err == nil {
		t.Fatal("run accepted unknown semantics")
	}
}

// A watch under unknown semantics must error too, before any
// maintenance starts.
func TestWatchUnknownSemantics(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, watching("nonsense", 3, false)); err == nil {
		t.Fatal("watch accepted unknown semantics")
	}
}

// Every watch also runs without -verify, whole stream in one chunk, so
// the plain path stays covered.
func TestWatchWithoutVerify(t *testing.T) {
	for _, semantics := range []string{"match", "sim", "dual", "strong"} {
		var buf bytes.Buffer
		if err := run(&buf, watching(semantics, 0, false)); err != nil {
			t.Fatalf("run(%s, no verify): %v", semantics, err)
		}
	}
}

// -plan/-count/-noplan are enumeration-only flags; -updates watches only
// the relation semantics, and -verify needs -updates.
func TestEnumFlagsRejectedElsewhere(t *testing.T) {
	count := tiny("match")
	count.count = true
	verify := tiny("match")
	verify.verify = true
	for name, o := range map[string]options{
		"-count with match": count,
		"-updates with iso": watching("iso", 3, false),
		"-verify alone":     verify,
	} {
		var buf bytes.Buffer
		if err := run(&buf, o); err == nil {
			t.Errorf("run accepted %s", name)
		}
	}
}

// -result prints a result graph, which sim and the enumeration semantics
// do not build, and a watch prints neither a result graph nor a match
// time: each such flag is rejected rather than silently ignored.
func TestIgnoredFlagsRejected(t *testing.T) {
	withResult := func(o options) options { o.showResult = true; return o }
	withTime := func(o options) options { o.showTime = true; return o }
	for name, o := range map[string]options{
		"-result with sim":      withResult(tiny("sim")),
		"-result with iso":      withResult(tiny("iso")),
		"-result with vf2":      withResult(tiny("vf2")),
		"-result with ullmann":  withResult(tiny("ullmann")),
		"-result with -updates": withResult(watching("dual", 3, false)),
		"-time with -updates":   withTime(watching("match", 3, false)),
	} {
		var buf bytes.Buffer
		if err := run(&buf, o); err == nil {
			t.Errorf("run accepted %s", name)
		}
	}
}
