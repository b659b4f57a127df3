// Package lint is the repo's static-analysis suite: a set of analyzers that
// machine-enforce invariants the compiler cannot see — hot paths staying
// allocation-free, ordering decisions never resting on map iteration order,
// no blocking I/O while a mutex is held, obs metric handles resolved at
// construction, and every store Acquire paired with a reachable Release.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature but is
// stdlib-only: packages are loaded with `go list -export -json` and
// typechecked against the build cache's export data (the same mechanism
// `go vet`'s unitchecker uses), so the suite runs offline at `go vet` cost.
//
// Each analyzer is pinned by fixture tests under testdata/src (the harness
// is fixture_test.go), and cmd/pbg-lint drives the whole suite over the
// repo in CI.
//
// Findings are suppressed with an explanatory directive on the offending
// line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare directive does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run receives a fully typechecked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer encodes.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the surviving
// findings (suppression directives applied), sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		diags = suppress(diags, pkg)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	names  []string // analyzer names, or ["all"]
	reason string
}

func (d ignoreDirective) covers(analyzer string) bool {
	if d.reason == "" {
		return false // an unexplained suppression does not suppress
	}
	for _, n := range d.names {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}

// suppress drops findings covered by a //lint:ignore directive on the same
// line or the line directly above.
func suppress(diags []Diagnostic, pkg *Package) []Diagnostic {
	directives := map[string]map[int][]ignoreDirective{} // file -> line -> directives
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				names, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				pos := pkg.Fset.Position(c.Pos())
				if directives[pos.Filename] == nil {
					directives[pos.Filename] = map[int][]ignoreDirective{}
				}
				directives[pos.Filename][pos.Line] = append(directives[pos.Filename][pos.Line], ignoreDirective{
					names:  strings.Split(names, ","),
					reason: strings.TrimSpace(reason),
				})
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		lines := directives[d.Position.Filename]
		covered := false
		for _, dir := range append(lines[d.Position.Line], lines[d.Position.Line-1]...) {
			if dir.covers(d.Analyzer) {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, d)
		}
	}
	return kept
}

// --- shared helpers used by the analyzers ---

// pkgPathHasSuffix reports whether a type's defining package path ends with
// suffix at a path-segment boundary. Matching by suffix rather than exact
// path lets fixture stubs under testdata mirror real repo packages.
func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// namedRecvType resolves the named type (and its package) of a method call's
// receiver, looking through pointers.
func namedRecvType(info *types.Info, call *ast.CallExpr) (*types.Named, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil, false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// recvFromPkg reports whether call is a method call whose receiver's named
// type is declared in a package whose path ends with one of the suffixes,
// returning the type name.
func recvFromPkg(info *types.Info, call *ast.CallExpr, suffixes ...string) (string, bool) {
	named, ok := namedRecvType(info, call)
	if !ok {
		return "", false
	}
	for _, s := range suffixes {
		if pkgPathHasSuffix(named.Obj().Pkg(), s) {
			return named.Obj().Name(), true
		}
	}
	return "", false
}

// calleeName returns the method or function name of a call, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// calleePkg returns the package of the called function/method, or nil (e.g.
// for builtins, conversions, and calls through function-typed variables).
func calleePkg(info *types.Info, call *ast.CallExpr) *types.Package {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		return nil
	}
	return obj.Pkg()
}

// isTestFile reports whether the file defining pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// funcDecls walks every function declaration in the pass's files.
func funcDecls(pass *Pass, fn func(*ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// exprString renders an expression compactly for diagnostics and for
// matching lock/unlock receivers textually.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// metricNameRE is the repo's metric naming convention: pbg_<pkg>_<name>,
// lowercase, with an optional {label="value",...} suffix (obs.Registry
// treats the whole string as the series key; WritePrometheus emits it
// verbatim).
var metricNameRE = regexp.MustCompile(`^pbg_[a-z0-9]+(_[a-z0-9]+)+(\{[a-z0-9_]+="[^"{}]*"(,[a-z0-9_]+="[^"{}]*")*\})?$`)
