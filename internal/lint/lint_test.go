package lint

import (
	"slices"
	"strings"
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

// TestProductTree keeps the product tree the product. Every package under
// internal/ with non-test files is linked by a binary, an example or the
// root package, or else shared by the tests of at least two packages (as
// storetest is); support that one package's tests use lives in that
// package's _test.go files. No binary under cmd/ links package testing.
func TestProductTree(t *testing.T) {
	const module = "pbg"
	pkgs, err := goList("../..", "./...")
	if err != nil {
		t.Fatalf("listing repo: %v", err)
	}
	linked := map[string]bool{}
	testImporters := map[string]map[string]bool{}
	for _, p := range pkgs {
		if p.ImportPath == module || strings.HasPrefix(p.ImportPath, module+"/cmd/") || strings.HasPrefix(p.ImportPath, module+"/examples/") {
			linked[p.ImportPath] = true
			for _, d := range p.Deps {
				linked[d] = true
			}
		}
		if p.Name == "main" && strings.HasPrefix(p.ImportPath, module+"/cmd/") && slices.Contains(p.Deps, "testing") {
			t.Errorf("%s links package testing", p.ImportPath)
		}
		for _, imp := range slices.Concat(p.TestImports, p.XTestImports) {
			if imp == p.ImportPath {
				continue
			}
			if testImporters[imp] == nil {
				testImporters[imp] = map[string]bool{}
			}
			testImporters[imp][p.ImportPath] = true
		}
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, module+"/internal/") || len(p.GoFiles)+len(p.CgoFiles) == 0 || linked[p.ImportPath] {
			continue
		}
		if n := len(testImporters[p.ImportPath]); n < 2 {
			t.Errorf("%s: no binary, example or the root package links it, and the tests of %d package(s) import it; move it into its user's _test.go files", p.ImportPath, n)
		}
	}
}

// TestKernelMetricName holds the one metric name the analyzer cannot read
// off a literal — vec builds it around the kernel path — to the naming rule.
func TestKernelMetricName(t *testing.T) {
	if name := vec.KernelMetric(); !metricNameRE.MatchString(name) {
		t.Fatalf("metric name %q does not match pbg_<pkg>_<name>", name)
	}
}
