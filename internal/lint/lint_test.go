package lint

import (
	"testing"

	"pbg/internal/vec"
)

// Each analyzer is pinned by a fixture package under testdata/src/<name>:
// `// want "re"` comments mark the lines that must fire, and every other
// line must stay silent. The fixtures double as a catalogue of the exact
// idioms the analyzers accept and reject.

func TestHotPathAlloc(t *testing.T)  { RunFixture(t, HotPathAlloc, "hotpath") }
func TestRangeMapDet(t *testing.T)   { RunFixture(t, RangeMapDet, "rangemapdet") }
func TestLockCall(t *testing.T)      { RunFixture(t, LockCall, "lockcall") }
func TestObsHandle(t *testing.T)     { RunFixture(t, ObsHandle, "obshandle") }
func TestPairedRelease(t *testing.T) { RunFixture(t, PairedRelease, "pairedrelease") }
func TestErrDrop(t *testing.T)       { RunFixture(t, ErrDrop, "errdrop") }
func TestNoRace(t *testing.T)        { RunFixture(t, NoRace, "pbg/internal/optim") }

// TestRepoIsClean is the zero-finding baseline: the full suite over the
// whole module must report nothing. A failure here is either a real
// regression or a new idiom the analyzers need to learn — fix the code or
// add a reasoned //lint:ignore, never delete the test.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped with -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestKernelMetricName holds the one metric name the analyzer cannot read
// off a literal — vec builds it around the kernel path — to the naming rule.
func TestKernelMetricName(t *testing.T) {
	if name := vec.KernelMetric(); !metricNameRE.MatchString(name) {
		t.Fatalf("metric name %q does not match pbg_<pkg>_<name>", name)
	}
}
