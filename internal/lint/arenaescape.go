package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ArenaEscape enforces the arena ownership rule (DESIGN.md §11): a tensor
// drawn from the arena — tensor.Get/GetLike, an Arena's Get/GetLike, a
// Graph's Alloc/AllocLike, or the un-zeroed *Uninit twins of the tensor and
// Graph entry points — is reclaimed by Graph.Reset (or an explicit Put), and
// any reference that survives past that point dangles: the buffer is handed
// to an unrelated computation, which corrupts results silently at exactly
// the worker count and epoch where the pool recycles it.
//
// The analysis is an intraprocedural taint pass over the CFG. A source call
// taints the assigned local; taint propagates through ident copies, Reshape
// views (they share the backing array), slicing, and composite literals that
// embed a tainted value. Taint dies when ownership is settled:
//
//   - tensor.Put / Arena.Put returns the buffer to the pool;
//   - appending to an `owned` field registers the tensor with the graph's
//     ownership ledger (the Graph.Alloc pattern), which reclaims it on Reset;
//   - Clone copies the data out of the arena entirely.
//
// Still-tainted values must not outlive the frame in a way the graph cannot
// see: a store into a struct field, package-level variable, map or slice
// element of either, a channel send, or a return hands the arena buffer to
// an owner with an unknown lifetime and is a diagnostic. Passing a tainted
// value as a call argument is fine — the callee is subject to the same
// analysis. Storing into fields of an autodiff Node is also fine: nodes die
// with the tape, at the same Reset that reclaims the tensor.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc:  "flags arena-allocated tensors escaping through fields, globals, channels, or returns",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, fb := range FuncBodies(f) {
				checkArenaEscape(p, fb)
			}
		}
	},
}

// escFact is the set of tainted (arena-owned) locals.
type escFact map[types.Object]bool

func (f escFact) clone() escFact {
	c := make(escFact, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

func escJoin(a, b escFact) escFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	c := a.clone()
	for k := range b {
		c[k] = true
	}
	return c
}

func escEqual(a, b escFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

type arenaEscScope struct {
	pass   *Pass
	report func(n ast.Node, what string)
}

func checkArenaEscape(p *Pass, fb FuncBody) {
	// Pre-scan: no arena source call, nothing to track.
	found := false
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isArenaSource(p, call) {
			found = true
		}
		return true
	})
	if !found {
		return
	}

	sc := &arenaEscScope{pass: p}
	cfg := BuildCFG(fb.Body)
	spec := FlowSpec[escFact]{
		Entry: escFact{},
		Join:  escJoin,
		Equal: escEqual,
		Transfer: func(fact escFact, n ast.Node) escFact {
			return sc.transfer(fact, n)
		},
	}
	in, _ := SolveForward(cfg, spec)

	sc.report = func(n ast.Node, what string) {
		p.Reportf(n.Pos(), "arena-allocated tensor %s; the arena reclaims it on Graph.Reset — Clone it, Put it back, or register ownership before it leaves this frame", what)
	}
	for _, b := range cfg.Blocks {
		fact, reachable := in[b]
		if !reachable {
			continue
		}
		for _, n := range b.Nodes {
			fact = sc.transfer(fact, n)
		}
	}
}

func (sc *arenaEscScope) transfer(fact escFact, n ast.Node) escFact {
	out := fact
	mutated := false
	mutable := func() escFact {
		if !mutated {
			out = fact.clone()
			mutated = true
		}
		return out
	}

	switch s := n.(type) {
	case *ast.AssignStmt:
		// Ownership transfers on the RHS first: append(g.owned, t) settles t.
		for _, rhs := range s.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isOwnedAppend(sc.pass, call) {
				for _, arg := range call.Args[1:] {
					if obj := usedIdentObj(sc.pass, arg); obj != nil && out[obj] {
						delete(mutable(), obj)
					}
				}
			}
		}
		ownedTransfer := len(s.Rhs) == 1 && isOwnedAppendExpr(sc.pass, s.Rhs[0])
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			obj, direct := directTarget(sc.pass, lhs)
			switch {
			case direct && obj != nil:
				// Only values whose type can carry the tensor propagate
				// taint: `v := t.Data[0]` extracts a scalar, not the buffer.
				tainted := rhs != nil && typeCarriesTensor(sc.pass.TypeOf(lhs)) && sc.taintedExpr(out, rhs)
				if tainted && isPackageLevel(obj) {
					if sc.report != nil {
						sc.report(lhs, "stored into a package-level variable")
					}
					break
				}
				switch {
				case tainted && !out[obj]:
					mutable()[obj] = true
				case !tainted && out[obj]:
					delete(mutable(), obj)
				}
			default:
				// Non-ident target: field store, global, or element write.
				if rhs != nil && typeCarriesTensor(sc.pass.TypeOf(rhs)) && sc.taintedExpr(out, rhs) && !ownedTransfer {
					if what, bad := escapingTarget(sc.pass, lhs); bad {
						if sc.report != nil {
							sc.report(lhs, "stored into "+what)
						}
					}
				}
			}
		}
	case *ast.SendStmt:
		if typeCarriesTensor(sc.pass.TypeOf(s.Value)) && sc.taintedExpr(out, s.Value) {
			if sc.report != nil {
				sc.report(s, "sent on a channel")
			}
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if typeCarriesTensor(sc.pass.TypeOf(res)) && sc.taintedExpr(out, res) {
				if sc.report != nil {
					sc.report(res, "returned to the caller")
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if isArenaPut(sc.pass, call) {
				for _, arg := range call.Args {
					if obj := usedIdentObj(sc.pass, arg); obj != nil && out[obj] {
						delete(mutable(), obj)
					}
				}
			}
		}
	}
	return out
}

// taintedExpr reports whether e evaluates to (or embeds) an arena-owned
// value under the current fact.
func (sc *arenaEscScope) taintedExpr(fact escFact, e ast.Expr) bool {
	tainted := false
	inspectNoFuncLit(e, func(n ast.Node) bool {
		if tainted {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := sc.pass.Info.Uses[n]; obj != nil && fact[obj] {
				tainted = true
			}
		case *ast.CallExpr:
			if isArenaSource(sc.pass, n) {
				tainted = true
				return false
			}
			if isOwnedAppend(sc.pass, n) {
				// The append both consumes the taint and yields the ledger
				// slice, which is not itself an escaping value.
				return false
			}
			// Calls otherwise launder taint (Clone, kernels): do not descend
			// into arguments, their use is the callee's concern. Except
			// Reshape/slicing, which share the backing array.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Reshape" {
				if sc.taintedExpr(fact, sel.X) {
					tainted = true
				}
			}
			return false
		}
		return true
	})
	return tainted
}

// escapingTarget classifies a non-ident assignment target that hands the
// value to a longer-lived owner. Node fields are exempt: the tape dies at
// the same Reset that reclaims the tensor.
func escapingTarget(p *Pass, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if isNodeType(p.TypeOf(lhs.X)) {
			return "", false
		}
		return "a struct field", true
	case *ast.IndexExpr:
		// Element of what? A local slice is fine; a field or global is not.
		switch base := ast.Unparen(lhs.X).(type) {
		case *ast.SelectorExpr:
			if isNodeType(p.TypeOf(base.X)) {
				return "", false
			}
			return "an element of a struct field", true
		case *ast.Ident:
			if obj := p.Info.Uses[base]; obj != nil && isPackageLevel(obj) {
				return "an element of a package-level variable", true
			}
			return "", false
		}
		return "", false
	case *ast.StarExpr:
		return "a dereferenced pointer", true
	case *ast.Ident:
		if obj := p.Info.Uses[lhs]; obj != nil && isPackageLevel(obj) {
			return "a package-level variable", true
		}
	}
	return "", false
}

// typeCarriesTensor reports whether a value of type t can hold (a reference
// to) a tensor: the tensor itself, or a pointer/slice/array/map/channel
// whose element reaches one. Struct types are excluded — field stores are
// classified as sinks, not carriers.
func typeCarriesTensor(t types.Type) bool {
	for i := 0; i < 8 && t != nil; i++ {
		if isTensorType(t) {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// isArenaSource classifies calls that hand out arena-owned tensors:
// tensor.Get/GetLike and their un-zeroed twins GetUninit/GetLikeUninit,
// Arena.Get/GetLike, and Graph.Alloc/AllocLike/AllocUninit/AllocLikeUninit.
func isArenaSource(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Get", "GetLike":
		if isTensorPkgIdent(p, sel.X) || isArenaType(p.TypeOf(sel.X)) {
			return true
		}
	case "GetUninit", "GetLikeUninit":
		return isTensorPkgIdent(p, sel.X)
	case "Alloc", "AllocLike", "AllocUninit", "AllocLikeUninit":
		return isGraphType(p.TypeOf(sel.X))
	}
	return false
}

// isArenaPut matches tensor.Put and Arena.Put.
func isArenaPut(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" {
		return false
	}
	return isTensorPkgIdent(p, sel.X) || isArenaType(p.TypeOf(sel.X))
}

// isOwnedAppend matches `append(x.owned, ...)`: registration with a graph's
// ownership ledger.
func isOwnedAppend(p *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	if len(call.Args) < 2 {
		return false
	}
	sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "owned"
}

func isOwnedAppendExpr(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && isOwnedAppend(p, call)
}

// usedIdentObj returns the object of a plain identifier expression.
func usedIdentObj(p *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return p.Info.Uses[id]
}

// isNodeType, isTensorType, isArenaType and isGraphType report whether t
// is (a pointer to) autodiff.Node, tensor.Tensor, tensor.Arena or
// autodiff.Graph.
func isNodeType(t types.Type) bool   { return isNamedIn(t, "Node", "internal/autodiff") }
func isTensorType(t types.Type) bool { return isNamedIn(t, "Tensor", "internal/tensor") }
func isArenaType(t types.Type) bool  { return isNamedIn(t, "Arena", "internal/tensor") }
func isGraphType(t types.Type) bool  { return isNamedIn(t, "Graph", "internal/autodiff") }

// isNamedIn reports whether t, or the type t points to, is the named type
// name of a package whose import path ends in pkgSuffix.
func isNamedIn(t types.Type, name, pkgSuffix string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isTensorPkgIdent reports whether e names the tensor package itself.
func isTensorPkgIdent(p *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || p.Info == nil {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && strings.HasSuffix(pn.Imported().Path(), "internal/tensor")
}
