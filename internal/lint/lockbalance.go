package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockBalance checks that every sync.Mutex / sync.RWMutex Lock (and RLock)
// acquired inside a function is released on every control-flow path that
// reaches the function's exit: by a matching Unlock/RUnlock on the path, or
// by a deferred unlock registered before the path ends. Mutex-guarded caches
// with early-unlock-and-return shapes (several unlock sites for one lock)
// are exactly the shape a refactor silently breaks — a missed path
// deadlocks the next caller rather than failing loudly.
//
// The analysis is a forward dataflow over the function's CFG: the fact is
// the set of mutexes acquired on some path and not yet covered by an unlock
// (direct or deferred). Paths that terminate in panic or os.Exit never reach
// the exit block, so a lock deliberately held at a panic is not a finding.
// Deferred unlocks inside `defer func() { ... }()` literals are honored; a
// lock handed to another goroutine or released by a callee needs an
// //ovslint:ignore with the reason.
var LockBalance = &Analyzer{
	Name:  "lockbalance",
	Doc:   "flags mutex Lock calls not matched by an Unlock on every path to function exit (defer-aware)",
	Tests: true,
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, fb := range FuncBodies(f) {
				checkLockBalance(p, fb)
			}
		}
	},
}

// lockFact maps "mutexExpr/kind" (kind "W" for Lock, "R" for RLock) to the
// position of the earliest Lock call that is still uncovered on some path.
type lockFact map[string]token.Pos

func (f lockFact) clone() lockFact {
	c := make(lockFact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func lockJoin(a, b lockFact) lockFact {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	c := a.clone()
	for k, v := range b {
		if old, ok := c[k]; !ok || v < old {
			c[k] = v
		}
	}
	return c
}

func lockEqual(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// lockOp is one Lock/Unlock-family call found inside a statement.
type lockOp struct {
	key     string // canonical mutex expression + lock kind
	acquire bool
	pos     token.Pos
}

// mutexOps extracts the lock operations a single CFG node performs, in
// source order. Deferred unlocks (both `defer mu.Unlock()` and closures
// deferring unlocks) count as releases at the point the defer statement
// executes: once registered, every path to exit is covered.
func mutexOps(p *Pass, n ast.Node) []lockOp {
	var ops []lockOp
	collect := func(root ast.Node, deferred bool) {
		inspectNoFuncLit(root, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := mutexCallOp(p, call); ok {
				if deferred && op.acquire {
					// `defer mu.Lock()` is almost certainly a bug, but it is
					// not this analyzer's bug to name; skip it.
					return true
				}
				ops = append(ops, op)
			}
			return true
		})
	}
	switch s := n.(type) {
	case *ast.DeferStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure: any unlock in its body runs at exit.
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if op, ok := mutexCallOp(p, call); ok && !op.acquire {
						ops = append(ops, op)
					}
				}
				return true
			})
			return ops
		}
		collect(s.Call, true)
	case *ast.GoStmt:
		// A goroutine's locks belong to its own function body (FuncBodies
		// yields the literal separately); nothing happens on this path.
	default:
		collect(n, false)
	}
	return ops
}

// mutexCallOp classifies a call as a sync.(RW)Mutex lock operation.
func mutexCallOp(p *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || p.Info == nil {
		return lockOp{}, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return lockOp{}, false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return lockOp{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return lockOp{}, false
	}
	var kind string
	var acquire bool
	switch sel.Sel.Name {
	case "Lock":
		kind, acquire = "W", true
	case "Unlock":
		kind, acquire = "W", false
	case "RLock":
		kind, acquire = "R", true
	case "RUnlock":
		kind, acquire = "R", false
	case "TryLock":
		kind, acquire = "W", true
	case "TryRLock":
		kind, acquire = "R", true
	default:
		return lockOp{}, false
	}
	return lockOp{key: types.ExprString(sel.X) + "/" + kind, acquire: acquire, pos: call.Pos()}, true
}

func checkLockBalance(p *Pass, fb FuncBody) {
	// Cheap pre-scan: skip bodies with no lock traffic at all.
	found := false
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := mutexCallOp(p, call); ok {
				found = true
			}
		}
		return true
	})
	if !found {
		return
	}

	cfg := BuildCFG(fb.Body)
	spec := FlowSpec[lockFact]{
		Entry: lockFact{},
		Join:  lockJoin,
		Equal: lockEqual,
		Transfer: func(fact lockFact, n ast.Node) lockFact {
			ops := mutexOps(p, n)
			if len(ops) == 0 {
				return fact
			}
			out := fact.clone()
			for _, op := range ops {
				if op.acquire {
					if _, held := out[op.key]; !held {
						out[op.key] = op.pos
					}
				} else {
					delete(out, op.key)
				}
			}
			return out
		},
	}
	_, out := SolveForward(cfg, spec)
	exitFact := out[cfg.Exit]
	if len(exitFact) == 0 {
		return
	}
	keys := make([]string, 0, len(exitFact))
	for k := range exitFact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		expr := k[:len(k)-2]
		verb := "Lock"
		if k[len(k)-1] == 'R' {
			verb = "RLock"
		}
		p.Reportf(exitFact[k], "%s.%s() is not released on every path to function exit; add an Unlock (or defer it) on the missing path", expr, verb)
	}
}
