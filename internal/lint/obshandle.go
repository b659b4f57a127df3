package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// ObsHandle enforces the observability layer's two conventions (PR 6):
//
//  1. obs.Registry lookups (Counter/Gauge/Histogram by name) are map-guarded
//     by a mutex, so handles must be resolved at construction — in a New*/
//     init/bind*-style function — and cached in struct fields, never looked
//     up per operation on a hot or warm path.
//  2. Metric-name literals follow pbg_<pkg>_<name>, lowercase, with an
//     optional {label="value"} suffix, so /metrics stays greppable and
//     dashboards survive refactors.
//
// The obs package itself (implementation and its tests) is exempt; _test.go
// files elsewhere are exempt from the construction rule (tests legitimately
// look handles up to read them) but not from the naming rule.
var ObsHandle = &Analyzer{
	Name: "obshandle",
	Doc:  "obs.Registry lookups belong in constructors; metric names must match pbg_<pkg>_…",
	Run:  runObsHandle,
}

func runObsHandle(pass *Pass) error {
	if pkgPathHasSuffix(pass.Pkg, "internal/obs") || strings.HasSuffix(pass.Pkg.Path(), "internal/obs_test") {
		return nil
	}
	funcDecls(pass, func(fd *ast.FuncDecl) {
		inConstructor := isConstructorish(fd.Name.Name)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			switch name {
			case "Counter", "Gauge", "Histogram":
			default:
				return true
			}
			if tn, ok := recvFromPkg(pass.TypesInfo, call, "internal/obs"); !ok || tn != "Registry" {
				return true
			}
			if !inConstructor && !isTestFile(pass.Fset, call.Pos()) {
				pass.Reportf(call.Pos(), "obs.Registry.%s outside a constructor: resolve the handle in New*/init/bind* and cache it in a field (registry lookups take the registry mutex)", name)
			}
			if len(call.Args) > 0 {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok {
					if s, err := strconv.Unquote(lit.Value); err == nil && !metricNameRE.MatchString(s) {
						pass.Reportf(lit.Pos(), "metric name %q does not match pbg_<pkg>_<name> (lowercase, optional {label=%q} suffix)", s, "value")
					}
				}
			}
			return true
		})
	})
	return nil
}

// isConstructorish reports whether a function name marks a construction-time
// context where registry lookups are expected: New*/new* constructors, init
// functions, a command's main (it runs once, at start-up), and the
// bind/set-metrics idioms (bindMetrics, newTrainMetrics, SetObs).
func isConstructorish(name string) bool {
	switch {
	case strings.HasPrefix(name, "New"), strings.HasPrefix(name, "new"),
		strings.HasPrefix(name, "init"), name == "main",
		strings.Contains(name, "Metrics"), strings.Contains(name, "Obs"),
		strings.HasPrefix(name, "bind"):
		return true
	}
	return false
}
