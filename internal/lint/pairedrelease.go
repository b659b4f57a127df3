package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// PairedRelease enforces the store refcount contract: every store Acquire
// (storage.Store and its implementations — MemStore, storage.Cache and the
// two stores built on it, DiskStore and the dist remoteStore, the storetest
// harness) must have a Release reachable on all exits of the enclosing
// function. storetest.LeakCheck catches the leaks a test happens to
// execute; this analyzer catches the early-return paths it doesn't: an
// `if err != nil { return … }` between Acquire and Release leaks the
// refcount, which pins the shard resident in the cache and suppresses its
// write — to disk or to its partition server — forever.
//
// The check is a lexical abstract interpretation, not a full CFG. It
// understands the codebase's release idioms:
//
//   - `sh, err := store.Acquire(…)` followed by `if err != nil { … }`:
//     the error branch holds nothing.
//   - a deferred Release (directly, in a deferred closure, or registered
//     through a callback like t.Cleanup(func() { … Release … })) covers
//     every exit.
//   - a local cleanup closure containing Release (the runEpochPipelined
//     releaseHeld idiom) releases everything when called.
//   - storing the acquired shard into a field, map, or returned value
//     transfers ownership to the caller/holder (train.View caches refs in
//     v.held and pairs them in Close; train.Resident carries them in
//     r.held from one bucket to the next and pairs them in ReleaseAll).
//
// Ownership-transferring helpers — functions whose own name contains
// acquire/release/checkout — are exempt: their callers carry the pairing.
var PairedRelease = &Analyzer{
	Name: "pairedrelease",
	Doc:  "every store Acquire must have a Release reachable on all exits",
	Run:  runPairedRelease,
}

func runPairedRelease(pass *Pass) error {
	funcDecls(pass, func(fd *ast.FuncDecl) {
		lower := strings.ToLower(fd.Name.Name)
		if strings.Contains(lower, "acquire") || strings.Contains(lower, "release") || strings.Contains(lower, "checkout") {
			return
		}
		st := &releaseState{
			pass:      pass,
			fn:        fd,
			releasers: localReleasers(pass, fd.Body),
			tainted:   map[string]bool{},
		}
		st.walkStmts(fd.Body.List)
		if st.outstanding > 0 && !st.deferred && st.lastAcquire != nil {
			pass.Reportf(st.lastAcquire.Pos(), "store Acquire without a Release on the fall-through exit of %s", fd.Name.Name)
		}
	})
	return nil
}

// localReleasers finds names of local closures whose body contains a store
// Release — calling one releases held shards.
func localReleasers(pass *Pass, body *ast.BlockStmt) map[string]bool {
	rel := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		id, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if fl, ok := asg.Rhs[0].(*ast.FuncLit); ok && countStoreCalls(pass, fl.Body, "Release") > 0 {
			rel[id.Name] = true
		}
		return true
	})
	return rel
}

type releaseState struct {
	pass        *Pass
	fn          *ast.FuncDecl
	releasers   map[string]bool
	tainted     map[string]bool // idents carrying an acquired shard
	outstanding int
	deferred    bool
	inLoop      bool // inside a for/range body: Release means bulk release
	lastAcquire ast.Node
	errVar      string // error result of the most recent Acquire assignment
}

func (st *releaseState) walkStmts(stmts []ast.Stmt) {
	for i := 0; i < len(stmts); i++ {
		// `sh, err := store.Acquire(…)` followed by an `if err != nil { … }`
		// error branch: the branch holds nothing new. Bookkeeping that cannot
		// leave the function may sit between the two (train.Resident strikes
		// the shard off its prefetch list whether or not the load succeeded).
		if st.acquireAssign(stmts[i]) && i+1 < len(stmts) {
			for i+2 < len(stmts) && straightLine(stmts[i+1]) {
				i++
				st.walkStmt(stmts[i])
			}
			if ifs, ok := stmts[i+1].(*ast.IfStmt); ok && st.isErrCheck(ifs.Cond) {
				body := st.fork()
				if body.outstanding > 0 {
					body.outstanding--
				}
				body.walkStmts(ifs.Body.List)
				i++
				if !terminates(ifs.Body.List) {
					st.join(body)
				}
				continue
			}
			continue
		}
		st.walkStmt(stmts[i])
	}
}

// straightLine reports whether stmt is a plain call or an increment —
// something control cannot leave the function through — that touches no
// store.
func straightLine(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		name := calleeName(call)
		return name != "Acquire" && name != "Release" && name != "panic"
	case *ast.IncDecStmt:
		return true
	}
	return false
}

// acquireAssign handles `sh, err := store.Acquire(…)`-shaped statements,
// returning true if it consumed one.
func (st *releaseState) acquireAssign(stmt ast.Stmt) bool {
	asg, ok := stmt.(*ast.AssignStmt)
	if !ok || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || !isStoreCall(st.pass, call, "Acquire") {
		return false
	}
	st.outstanding++
	st.lastAcquire = call
	st.errVar = ""
	if len(asg.Lhs) == 2 {
		if id, ok := asg.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			st.tainted[id.Name] = true
		}
		if id, ok := asg.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
			st.errVar = id.Name
		}
	}
	return true
}

// isErrCheck matches `err != nil` (possibly inside ||/&&) for the most
// recent acquire's error variable.
func (st *releaseState) isErrCheck(cond ast.Expr) bool {
	if st.errVar == "" {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.NEQ {
			if id, ok := b.X.(*ast.Ident); ok && id.Name == st.errVar {
				found = true
			}
		}
		return !found
	})
	return found
}

// isNilCheck matches `err == nil` for the most recent acquire's error
// variable.
func (st *releaseState) isNilCheck(cond ast.Expr) bool {
	if st.errVar == "" {
		return false
	}
	b, ok := cond.(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return false
	}
	id, ok := b.X.(*ast.Ident)
	return ok && id.Name == st.errVar
}

func (st *releaseState) walkStmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.DeferStmt:
		if countStoreCalls(st.pass, s, "Release") > 0 {
			st.deferred = true
		}
	case *ast.ReturnStmt:
		st.scanNode(stmt)
		// Returning a tainted value hands the refcount to the caller.
		for _, r := range s.Results {
			if st.mentionsTainted(r) && st.outstanding > 0 {
				st.outstanding--
			}
		}
		if st.outstanding > 0 && !st.deferred {
			st.pass.Reportf(s.Pos(), "return with %d outstanding store Acquire(s) and no deferred Release (acquired at %s)",
				st.outstanding, st.pass.Fset.Position(st.lastAcquire.Pos()))
		}
	case *ast.BlockStmt:
		st.walkStmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			if st.acquireAssign(s.Init) {
				switch {
				case st.isErrCheck(s.Cond):
					// `if _, err := store.Acquire(…); err != nil { … }`:
					// the then-branch is the failure path, holding nothing.
					fail := st.fork()
					if fail.outstanding > 0 {
						fail.outstanding--
					}
					fail.walkStmts(s.Body.List)
					if !terminates(s.Body.List) {
						st.join(fail)
					}
					return
				case st.isNilCheck(s.Cond):
					// `if _, err := store.Acquire(…); err == nil { … }`
					// (discardPrefetched's best-effort evict): the branch
					// holds; the fall-through is the failure path.
					then := st.fork()
					then.walkStmts(s.Body.List)
					if st.outstanding > 0 {
						st.outstanding--
					}
					if !terminates(s.Body.List) {
						st.join(then)
					}
					return
				}
			} else {
				st.walkStmt(s.Init)
			}
		}
		st.scanNode(s.Cond)
		then := st.fork()
		then.walkStmts(s.Body.List)
		if s.Else != nil {
			els := st.fork()
			els.walkStmt(s.Else)
			if !terminates(s.Body.List) {
				st.join(then)
			}
			if eb, ok := s.Else.(*ast.BlockStmt); !ok || !terminates(eb.List) {
				st.join(els)
			}
		} else if !terminates(s.Body.List) {
			st.join(then)
		}
	case *ast.ForStmt:
		// Loop bodies thread state straight through: acquires count once,
		// and a Release inside a loop is the bulk-release idiom (release
		// every held shard), so it clears the count rather than
		// decrementing — the iteration count isn't knowable lexically.
		if s.Init != nil {
			st.walkStmt(s.Init)
		}
		if s.Cond != nil {
			st.scanNode(s.Cond)
		}
		saved := st.inLoop
		st.inLoop = true
		st.walkStmts(s.Body.List)
		st.inLoop = saved
	case *ast.RangeStmt:
		st.scanNode(s.X)
		saved := st.inLoop
		st.inLoop = true
		st.walkStmts(s.Body.List)
		st.inLoop = saved
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			switch cc := n.(type) {
			case *ast.CaseClause:
				body := st.fork()
				body.walkStmts(cc.Body)
				st.join(body)
				return false
			case *ast.CommClause:
				body := st.fork()
				body.walkStmts(cc.Body)
				st.join(body)
				return false
			}
			return true
		})
	case *ast.LabeledStmt:
		st.walkStmt(s.Stmt)
	case *ast.AssignStmt:
		st.scanNode(stmt)
		// Propagate taint (ref := shardRef{shard: sh}) and detect ownership
		// transfer into longer-lived state (v.held[k] = ref, s.shard = sh).
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			} else if len(s.Rhs) == 1 {
				rhs = s.Rhs[0]
			}
			if rhs == nil || !st.mentionsTainted(rhs) {
				continue
			}
			switch l := lhs.(type) {
			case *ast.Ident:
				if l.Name != "_" {
					st.tainted[l.Name] = true
				}
			case *ast.SelectorExpr, *ast.IndexExpr:
				if st.outstanding > 0 {
					st.outstanding--
				}
			}
		}
	default:
		st.scanNode(stmt)
	}
}

// mentionsTainted reports whether e references an ident carrying an
// acquired shard.
func (st *releaseState) mentionsTainted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && st.tainted[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

func (st *releaseState) fork() *releaseState {
	c := *st
	c.tainted = map[string]bool{}
	for k := range st.tainted {
		c.tainted[k] = true
	}
	return &c
}

// join folds a branch's exit state back in: outstanding acquires take the
// maximum (a leak on either path is a leak), deferred release propagates by
// OR — a conditional defer-release is rare and explicit.
func (st *releaseState) join(branch *releaseState) {
	if branch.outstanding > st.outstanding {
		st.outstanding = branch.outstanding
		st.lastAcquire = branch.lastAcquire
	}
	st.deferred = st.deferred || branch.deferred
}

// scanNode updates the acquire/release count from one simple statement or
// expression: direct Acquire/Release calls, calls to local release
// closures, and callback registrations that defer a Release.
func (st *releaseState) scanNode(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // counted only where invoked or registered
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isStoreCall(st.pass, call, "Acquire"):
			st.outstanding++
			st.lastAcquire = call
		case isStoreCall(st.pass, call, "Release"):
			if st.inLoop {
				st.outstanding = 0
			} else if st.outstanding > 0 {
				st.outstanding--
			}
		default:
			if id, ok := call.Fun.(*ast.Ident); ok && st.releasers[id.Name] {
				// A cleanup closure releases everything it tracked.
				st.outstanding = 0
			}
			// Registering a releasing callback (t.Cleanup(func() { … })) is
			// a deferred release.
			for _, arg := range call.Args {
				if fl, ok := arg.(*ast.FuncLit); ok && countStoreCalls(st.pass, fl.Body, "Release") > 0 {
					st.deferred = true
				}
			}
		}
		return true
	})
}

// countStoreCalls counts calls to the named method on a store type under n,
// including inside function literals.
func countStoreCalls(pass *Pass, n ast.Node, method string) int {
	count := 0
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && isStoreCall(pass, call, method) {
			count++
		}
		return true
	})
	return count
}

// isStoreCall reports whether call invokes the named method on a type from
// a store package: internal/storage (Store, Cache, DiskStore, MemStore), the
// storetest harness, or internal/dist (remoteStore, which embeds Cache).
func isStoreCall(pass *Pass, call *ast.CallExpr, method string) bool {
	if calleeName(call) != method {
		return false
	}
	_, ok := recvFromPkg(pass.TypesInfo, call, "internal/storage", "storage/storetest", "internal/dist")
	return ok
}
