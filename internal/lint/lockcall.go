package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCall flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends/receives, select, time.Sleep, RPC
// (wire.Client calls and the dist retryClient), os file I/O, calls into
// a storage.Store (Acquire/Release/Flush/Prefetch/Drain block on disk or
// RPC), and — inside internal/storage too — calls to a storage.Backend
// (Load/Store are the disk read, the file write, the partition-server Get
// and Put). storage.Cache is the one lock every shard swap of either
// backend goes through; it drops mu around every backend call and hands
// write-backs to an async worker, and this analyzer keeps new code from
// regressing it: a blocked lock holder stalls every HOGWILD worker behind
// one slow syscall or round trip.
//
// Lock state is tracked per function with a small lexical interpreter:
// Lock() sets a mutex held, Unlock() clears it (including the
// unlock-wait-relock idiom), a deferred Unlock holds to function exit, and
// branches whose body terminates (return/continue/break/panic) do not leak
// their state past the branch. Function literals are not descended into —
// they usually run after release.
var LockCall = &Analyzer{
	Name: "lockcall",
	Doc:  "no blocking I/O, RPC, or channel operations while holding a mutex",
	Run:  runLockCall,
}

func runLockCall(pass *Pass) error {
	funcDecls(pass, func(fd *ast.FuncDecl) {
		held := map[string]bool{}
		walkLockStmts(pass, fd.Body.List, held)
	})
	return nil
}

// walkLockStmts interprets one statement list, mutating held (the set of
// printed mutex receivers currently locked) as it goes.
func walkLockStmts(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		walkLockStmt(pass, stmt, held)
	}
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, held map[string]bool) {
	info := pass.TypesInfo
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, kind, ok := mutexOp(info, s); ok {
			switch kind {
			case "Lock", "RLock":
				held[recv] = true
			case "Unlock", "RUnlock":
				delete(held, recv)
			}
			return
		}
		checkHazards(pass, s, held)
	case *ast.DeferStmt:
		if recv, kind, ok := mutexCall(info, s.Call); ok && (kind == "Unlock" || kind == "RUnlock") {
			// Held to function exit; everything after is a critical section,
			// which is exactly what the subsequent statements report against.
			_ = recv
			return
		}
		checkHazards(pass, s.Call, held)
	case *ast.BlockStmt:
		walkLockStmts(pass, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		checkHazards(pass, s.Cond, held)
		thenHeld := copyHeld(held)
		walkLockStmts(pass, s.Body.List, thenHeld)
		elseHeld := copyHeld(held)
		if s.Else != nil {
			walkLockStmt(pass, s.Else, elseHeld)
		}
		// Merge: only branches that fall through contribute; a branch ending
		// in return/continue/break/panic keeps its lock state to itself.
		merged := map[string]bool{}
		fellThrough := false
		if !terminates(s.Body.List) {
			for k := range thenHeld {
				merged[k] = true
			}
			fellThrough = true
		}
		elseTerm := false
		if eb, ok := s.Else.(*ast.BlockStmt); ok {
			elseTerm = terminates(eb.List)
		}
		if !elseTerm {
			for k := range elseHeld {
				merged[k] = true
			}
			fellThrough = true
		}
		clear(held)
		if fellThrough {
			for k := range merged {
				held[k] = true
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			checkHazards(pass, s.Cond, held)
		}
		body := copyHeld(held)
		walkLockStmts(pass, s.Body.List, body)
	case *ast.RangeStmt:
		checkHazards(pass, s.X, held)
		body := copyHeld(held)
		walkLockStmts(pass, s.Body.List, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		if _, ok := s.(*ast.SelectStmt); ok && anyHeld(held) {
			pass.Reportf(s.Pos(), "select while holding %s", firstHeld(held))
		}
		ast.Inspect(s, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				body := copyHeld(held)
				walkLockStmts(pass, cc.Body, body)
				return false
			}
			if cc, ok := n.(*ast.CommClause); ok {
				body := copyHeld(held)
				walkLockStmts(pass, cc.Body, body)
				return false
			}
			return true
		})
	case *ast.LabeledStmt:
		walkLockStmt(pass, s.Stmt, held)
	default:
		checkHazards(pass, stmt, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k := range held {
		c[k] = true
	}
	return c
}

func anyHeld(held map[string]bool) bool { return len(held) > 0 }

// firstHeld picks a deterministic representative of the held set for the
// diagnostic message.
func firstHeld(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// terminates reports whether a statement list always transfers control away
// (return, continue, break, goto, panic, or os.Exit-style never-returns are
// approximated by return/branch/panic).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// checkHazards inspects one non-lock statement or expression for blocking
// operations, reporting each against the currently held mutexes.
func checkHazards(pass *Pass, n ast.Node, held map[string]bool) {
	if !anyHeld(held) {
		return
	}
	lock := firstHeld(held)
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				pass.Reportf(m.Pos(), "channel receive while holding %s", lock)
			}
		case *ast.SendStmt:
			pass.Reportf(m.Pos(), "channel send while holding %s", lock)
		case *ast.CallExpr:
			checkCallUnderLock(pass, m, lock)
		}
		return true
	})
}

func checkCallUnderLock(pass *Pass, call *ast.CallExpr, lock string) {
	info := pass.TypesInfo
	name := calleeName(call)

	if pkg := calleePkg(info, call); pkg != nil {
		switch {
		case pkg.Path() == "time" && name == "Sleep":
			pass.Reportf(call.Pos(), "time.Sleep while holding %s", lock)
			return
		case pkg.Path() == "os":
			switch name {
			case "ReadFile", "WriteFile", "Open", "OpenFile", "Create", "CreateTemp",
				"Rename", "Remove", "RemoveAll", "Mkdir", "MkdirAll", "ReadDir":
				pass.Reportf(call.Pos(), "os.%s while holding %s", name, lock)
				return
			}
		}
	}

	named, ok := namedRecvType(info, call)
	if !ok {
		return
	}
	tn, pkg := named.Obj().Name(), named.Obj().Pkg()
	switch {
	case pkgPathHasSuffix(pkg, "internal/wire") && tn == "Client" && (name == "Call" || name == "Go"):
		pass.Reportf(call.Pos(), "rpc %s.%s while holding %s (a round trip, or a frame write the peer may stall)", exprString(call.Fun.(*ast.SelectorExpr).X), name, lock)
	case tn == "retryClient" && (name == "Call" || name == "Go"):
		pass.Reportf(call.Pos(), "retryClient.%s while holding %s (retry/backoff can hold the lock for seconds)", name, lock)
	case pkg != nil && pkg.Path() == "os" && tn == "File":
		switch name {
		case "Read", "ReadAt", "Write", "WriteAt", "Sync", "Close", "Seek", "Truncate":
			pass.Reportf(call.Pos(), "file %s.%s while holding %s", exprString(call.Fun.(*ast.SelectorExpr).X), name, lock)
		}
	case pkgPathHasSuffix(pkg, "internal/storage") && tn == "Backend":
		pass.Reportf(call.Pos(), "storage Backend.%s while holding %s (a disk access or an RPC under the cache lock)", name, lock)
	case pkgPathHasSuffix(pkg, "internal/storage") && !pkgPathHasSuffix(pass.Pkg, "internal/storage"):
		switch name {
		case "Acquire", "Release", "Flush", "Prefetch", "Drain":
			pass.Reportf(call.Pos(), "storage %s.%s while holding %s (blocks on disk or RPC)", tn, name, lock)
		}
	}
}

// mutexOp matches a statement that is exactly `recv.Lock()` (or
// RLock/Unlock/RUnlock) on a sync mutex, returning the receiver's printed
// form and the method name.
func mutexOp(info *types.Info, stmt *ast.ExprStmt) (recv, kind string, ok bool) {
	call, isCall := stmt.X.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	return mutexCall(info, call)
}

func mutexCall(info *types.Info, call *ast.CallExpr) (recv, kind string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	named, isNamed := namedRecvType(info, call)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return exprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}
