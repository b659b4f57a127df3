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
	"strings"
)

// Package is one typechecked package ready for analysis. Test files are
// folded into their package (the `p [p.test]` variant the compiler builds);
// external _test packages load as their own Package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	ForTest    string

	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string

	Deps         []string
	TestImports  []string
	XTestImports []string

	Error *struct{ Err string }
}

// Load typechecks the packages matching patterns (e.g. "./...") in the
// module containing dir. Dependencies — stdlib and module-internal alike —
// resolve from the build cache's export data via `go list -export`, so no
// network or GOPATH is touched.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-e", "-export", "-deps", "-test"}, patterns...)...)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var targets []*listPackage
	for i := range listed {
		p := &listed[i]
		if p.Export != "" {
			switch {
			case p.ForTest != "" && strings.HasPrefix(p.ImportPath, p.ForTest+" ["):
				// `p [p.test]` is the package-under-test rebuilt with its
				// _test.go files; its export data is a superset of the plain
				// package's, so external test packages resolve their import
				// of the package under test to the right build. (Other
				// bracketed entries — helpers rebuilt against the test
				// variant, and the _test package itself — also carry ForTest
				// and must not clobber this slot.)
				exports[p.ForTest] = p.Export
			default:
				if _, ok := exports[p.ImportPath]; !ok {
					exports[p.ImportPath] = p.Export
				}
			}
		}
		if !p.Standard && p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		// The package proper plus its in-package test files, as one unit.
		files := make([]string, 0, len(t.GoFiles)+len(t.CgoFiles)+len(t.TestGoFiles))
		files = append(files, t.GoFiles...)
		files = append(files, t.CgoFiles...)
		files = append(files, t.TestGoFiles...)
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)

		if len(t.XTestGoFiles) > 0 {
			xpkg, err := check(fset, imp, t.ImportPath+"_test", t.Dir, t.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xpkg)
		}
	}
	return pkgs, nil
}

// goList runs `go list -json` with args in dir and decodes the packages it
// prints.
func goList(dir string, args ...string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s", p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// check parses and typechecks one package's files.
func check(fset *token.FileSet, imp types.Importer, importPath, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
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
		return nil, fmt.Errorf("lint: typechecking %s: %w", importPath, err)
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
