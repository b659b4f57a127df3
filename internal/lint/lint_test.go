package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
//
// One binary: cmd/ holds pbg, the product surface (import, train, node,
// eval, serve over one run directory), and beside it only the repo's own
// tools, pbg-docscheck and pbg-lint. One harness: internal/bench is the
// paper-shape tests and nothing else, so it holds no non-test Go file, and
// rates are benchmark/ rows, with no cmd/pbg-bench.
func TestProductTree(t *testing.T) {
	cmds, err := os.ReadDir("../../cmd")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range cmds {
		names = append(names, e.Name())
	}
	if want := []string{"pbg", "pbg-docscheck", "pbg-lint"}; !slices.Equal(names, want) {
		t.Errorf("cmd/ holds %v, want %v: one product binary beside the repo's own tools", names, want)
	}
	err = filepath.WalkDir("../../internal/bench", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			t.Errorf("%s: internal/bench holds only the paper-shape tests; a rate is a benchmark/ row", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

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

// TestCINames holds ci.yml's -run, -fuzz and -bench arguments to the tests:
// every Test, Fuzz or Benchmark name in them must prefix a function that a
// _test.go file declares. go test -run X with no match passes, so a renamed
// test would otherwise empty its CI step silently. A copy of ci.yml with one
// name misspelled must fail.
func TestCINames(t *testing.T) {
	b, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	ci := string(b)
	declared, err := testFuncs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if missing := unknownCINames(ci, declared); len(missing) > 0 {
		t.Errorf("ci.yml names tests no _test.go file declares: %v", missing)
	}
	names := unknownCINames(ci, nil)
	if len(names) == 0 {
		t.Fatal("ci.yml names no test")
	}
	n := names[0]
	typo := n[:len(n)/2] + n[len(n)/2+1:]
	if missing := unknownCINames(strings.ReplaceAll(ci, n, typo), declared); !slices.Contains(missing, typo) {
		t.Errorf("ci.yml with %s misspelled %s: reported %v", n, typo, missing)
	}
}

var (
	ciArgRE    = regexp.MustCompile(`-(?:run|fuzz|bench)[ =]('[^']*'|"[^"]*"|\S+)`)
	ciNameRE   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)\w*`)
	testFuncRE = regexp.MustCompile(`^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// unknownCINames lists, in order of appearance, the test names in ci's
// -run, -fuzz and -bench arguments that prefix none of declared.
func unknownCINames(ci string, declared []string) []string {
	var missing []string
	for _, arg := range ciArgRE.FindAllStringSubmatch(ci, -1) {
		for _, name := range ciNameRE.FindAllString(arg[1], -1) {
			known := slices.ContainsFunc(declared, func(f string) bool { return strings.HasPrefix(f, name) })
			if !known && !slices.Contains(missing, name) {
				missing = append(missing, name)
			}
		}
	}
	return missing
}

// testFuncs lists the Test, Fuzz and Benchmark functions that the _test.go
// files under root declare.
func testFuncs(root string) ([]string, error) {
	var funcs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(b), "\n") {
			if m := testFuncRE.FindStringSubmatch(line); m != nil {
				funcs = append(funcs, m[1])
			}
		}
		return nil
	})
	return funcs, err
}

// TestKernelMetricName holds the one metric name the analyzer cannot read
// off a literal — vec builds it around the kernel path — to the naming rule.
func TestKernelMetricName(t *testing.T) {
	if name := vec.KernelMetric(); !metricNameRE.MatchString(name) {
		t.Fatalf("metric name %q does not match pbg_<pkg>_<name>", name)
	}
}
