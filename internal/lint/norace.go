package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// noRaceAllowed lists, by full name, every function that may carry
// //go:norace: only the paper's benign HOGWILD race, the row Adagrad's
// unlocked read-modify-write of a row's accumulator (Recht et al. 2011).
var noRaceAllowed = []string{"(pbg/internal/optim.RowAdagrad).Update"}

// NoRace keeps the race detector's exemption scoped: `go test -race` checks
// the multi-worker training path, and a //go:norace outside noRaceAllowed
// would take that function's races out of the check. The directive binds to
// the next function declared after it, blank lines or not.
var NoRace = &Analyzer{
	Name: "norace",
	Doc:  "//go:norace only on the allowlisted benign HOGWILD race (optim.RowAdagrad.Update)",
	Run:  runNoRace,
}

func runNoRace(pass *Pass) error {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text != "//go:norace" && !strings.HasPrefix(c.Text, "//go:norace ") {
					continue
				}
				if name := nextFuncName(pass, f, c); !slices.Contains(noRaceAllowed, name) {
					pass.Reportf(c.Pos(), "//go:norace on %s, which is not on the allowlist: synchronise the access instead", name)
				}
			}
		}
	}
	return nil
}

// nextFuncName returns the full name of the first function declared after
// comment c in f, or "" when none follows it.
func nextFuncName(pass *Pass, f *ast.File, c *ast.Comment) string {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() > c.Pos() {
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				return fn.FullName()
			}
			return ""
		}
	}
	return ""
}
