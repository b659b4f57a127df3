package lint

import (
	"fmt"
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

// A guard is a "one X" invariant of the product written as a row: no
// non-test Go file outside benchmark/ and testdata/ — and outside allow, the
// one file that is the X, when the row names one — may match forbid. mutant
// is a line the guard must catch, and why is the measurement that settled
// it (docs/ARCHITECTURE.md, "What earns its keep").
type guard struct {
	name   string
	allow  string // slash path from the module root; "" allows no file
	forbid *regexp.Regexp
	mutant string
	why    string
}

var guards = []guard{
	{
		name:   "one serve row format",
		forbid: regexp.MustCompile(`quantRows|BuildQuant|WriteQuantCopy|QuantShardPath|rerankFP32|build-quant|\.q\.pbg`),
		mutant: "func (s *Server) BuildQuant(c storage.Codec) error { return nil }",
		why:    "every served shard is fp32 rows; a quantized sibling scan with an fp32 re-rank served 0.53x the exact fp32 QPS at int8 and 0.33x at fp16",
	},
	{
		name:   "one atomic replace",
		allow:  "internal/storage/replace.go",
		forbid: regexp.MustCompile(`os\.Rename\(|os\.Link\(`),
		mutant: "func publish(tmp, path string) error { return os.Rename(tmp, path) }",
		why:    "every file is published by storage's one writer under one crash model, and a shard write-back rewrites the image it displaced only when no other name or reader sees it; its own temp + rename beside it would skip both checks",
	},
}

// TestGuards runs every guard over the module, then over a mutation fixture:
// a tree holding the guard's mutant line in a product file, which must be
// reported, and in a _test.go file, under benchmark/, under testdata/ and in
// the guard's allowed file, which must not.
func TestGuards(t *testing.T) {
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			hits, err := guardHits("../..", g)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				t.Errorf("%s: forbidden by %q (%s)", h, g.name, g.why)
			}
			root := t.TempDir()
			fixture := []string{"internal/serve/mutant.go", "internal/serve/mutant_test.go", "benchmark/mutant.go", "internal/lint/testdata/src/x/mutant.go"}
			if g.allow != "" {
				fixture = append(fixture, g.allow)
			}
			for _, rel := range fixture {
				path := filepath.Join(root, rel)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte("package x\n\n"+g.mutant+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			hits, err = guardHits(root, g)
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"internal/serve/mutant.go:3"}; !slices.Equal(hits, want) {
				t.Errorf("mutation fixture: guard reported %v, want %v", hits, want)
			}
		})
	}
}

// guardHits lists, as path:line under root, every line of a non-test Go file
// outside benchmark/, testdata/, dot directories and g.allow that matches
// g.forbid.
func guardHits(root string, g guard) ([]string, error) {
	var hits []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (rel == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || rel == g.allow {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			if g.forbid.MatchString(line) {
				hits = append(hits, fmt.Sprintf("%s:%d", rel, i+1))
			}
		}
		return nil
	})
	return hits, err
}

// TestKernelMetricName holds the one metric name the analyzer cannot read
// off a literal — vec builds it around the kernel path — to the naming rule.
func TestKernelMetricName(t *testing.T) {
	if name := vec.KernelMetric(); !metricNameRE.MatchString(name) {
		t.Fatalf("metric name %q does not match pbg_<pkg>_<name>", name)
	}
}
