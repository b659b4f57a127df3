package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// RunFixture loads the fixture package at testdata/src/<name>, runs one
// analyzer over it, and matches the diagnostics against `// want "regexp"`
// comments — the analysistest contract in miniature. Every diagnostic must
// be wanted by a regexp on its line, and every want must be hit.
//
// Fixture imports of pbg/... paths resolve to stub packages under
// testdata/src (e.g. testdata/src/pbg/internal/obs mirrors the real obs
// API), so fixtures exercise the same package-path matching the analyzers
// apply to the real repo. Stdlib imports resolve from build-cache export
// data, same as the real loader.
func RunFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg, err := loadFixture(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, name, err)
	}
	checkWants(t, pkg, diags)
}

// wantRE matches one `// want "…"` or `// want `…“ comment tail.
var wantRE = regexp.MustCompile("// want (\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					lit := m[1]
					var pattern string
					if lit[0] == '`' {
						pattern = lit[1 : len(lit)-1]
					} else {
						var err error
						pattern, err = strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("bad want literal %s: %v", lit, err)
						}
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", pattern, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Position.Filename && w.line == d.Position.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// --- fixture loading ---

var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

// stdExportData builds (once per process) the export-data index for the
// stdlib packages fixtures are allowed to import.
func stdExportData() (map[string]string, error) {
	stdExportsOnce.Do(func() {
		cmd := exec.Command("go", "list", "-e", "-export", "-json=ImportPath,Export", "-deps",
			"fmt", "os", "sync", "time", "sort", "strings", "strconv", "errors", "bytes", "io")
		out, err := cmd.Output()
		if err != nil {
			stdExportsErr = fmt.Errorf("go list std exports: %w", err)
			return
		}
		stdExports = map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				stdExportsErr = err
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	return stdExports, stdExportsErr
}

// fixtureImporter resolves pbg/... paths from testdata stub sources and
// everything else from stdlib export data.
type fixtureImporter struct {
	fset    *token.FileSet
	root    string // testdata/src
	gc      types.Importer
	sources map[string]*types.Package
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.sources[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := checkFixtureDir(fi.fset, fi, path, dir)
		if err != nil {
			return nil, err
		}
		fi.sources[path] = pkg.Types
		return pkg.Types, nil
	}
	return fi.gc.Import(path)
}

func loadFixture(dir string) (*Package, error) {
	exports, err := stdExportData()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("fixture: no export data for %q (add it to stdExportData)", path)
		}
		return os.Open(e)
	}
	fi := &fixtureImporter{
		fset:    fset,
		root:    filepath.Join("testdata", "src"),
		gc:      importer.ForCompiler(fset, "gc", lookup),
		sources: map[string]*types.Package{},
	}
	return checkFixtureDir(fset, fi, filepath.ToSlash(strings.TrimPrefix(dir, "testdata/src/")), dir)
}

func checkFixtureDir(fset *token.FileSet, imp types.Importer, importPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture: no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking fixture %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
