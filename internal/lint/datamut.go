package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DataMut enforces the pack-cache version invariant (DESIGN.md §15): outside
// internal/tensor, every in-place mutation of a tensor that could be a
// packable weight must be visible to the pack cache. The cache keys packed
// GEMM panels by (tensor pointer, mutation version); a raw store into a
// weight's data slice that does not bump the version leaves stale panels
// live, and the next blocked product silently multiplies by old weights.
//
// A write is any store through a tensor's data slice: an index or slice
// store rooted at `x.Data`, a `copy` whose destination is rooted at it, or
// the same through a local alias (`d := x.Data; d[i] = v`). A write is
// sanctioned when the dataflow can prove the cache can never hold panels for
// the tensor, or sees the bump:
//
//   - the tensor is function-local and never packable: it flows from a
//     tensor constructor (New/Zeros/Ones/Full/FromSlice/Randn/RandUniform/
//     Xavier), Clone or Map, an arena Get/GetLike (recycled buffers drop the
//     packable mark), or a Graph allocator (Alloc/AllocLike and their
//     *Uninit twins);
//   - the tensor is a gradient: it flows from a `.Grad` field or an
//     `ensureGrad` call — gradients are never marked packable;
//   - the enclosing function calls NoteMutation on the same tensor (the
//     pattern of every sanctioned mutator in internal/tensor).
//
// Everything else — writes through parameters, struct fields, captured
// state — is a diagnostic: route the store through a tensor method or call
// NoteMutation alongside it. internal/tensor itself is exempt: it IS the
// sanctioned mutator set, and its kernels pair raw stores with NoteMutation
// under review (enforced by its tests, not by syntax).
var DataMut = &Analyzer{
	Name: "datamut",
	Doc:  "flags raw tensor data writes that could bypass the pack-cache mutation version",
	Run: func(p *Pass) {
		if strings.HasSuffix(p.PkgPath, "internal/tensor") {
			return
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				// The NoteMutation sanction is scoped to the whole top-level
				// declaration: a bump before or after a parallel.ForWorkers
				// closure covers the writes inside it (bumping inside the
				// closure would race across workers).
				noted := collectNoted(p, fd.Body)
				checkDataMut(p, fd.Body, noted)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						checkDataMut(p, lit.Body, noted)
					}
					return true
				})
			}
		}
	},
}

// collectNoted gathers the rendered receiver expression of every
// NoteMutation call under root, nested function literals included.
func collectNoted(p *Pass, root ast.Node) map[string]bool {
	noted := map[string]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NoteMutation" && isTensorExpr(p, sel.X) {
				noted[types.ExprString(sel.X)] = true
			}
		}
		return true
	})
	return noted
}

// tensorProv is the provenance of one tracked local: a tensor variable or a
// []float64 alias of a tensor's data slice.
type tensorProv struct {
	// safe means the value provably cannot be packable (fresh local, arena
	// tensor, or gradient).
	safe bool
	// origin is the rendered expression of the tensor the value aliases
	// ("t" for both `t` and `d := t.Data`), used to match NoteMutation
	// calls. Empty when paths disagree.
	origin string
}

// mutFact maps tracked objects to their provenance. Absence means the object
// is not a tensor value the analysis has seen defined (writes through
// untracked tensor-typed expressions are unsafe by default; untracked plain
// slices are not tensor data at all).
type mutFact map[types.Object]tensorProv

func (f mutFact) clone() mutFact {
	c := make(mutFact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func mutJoin(a, b mutFact) mutFact {
	if len(a) == 0 || len(b) == 0 {
		// A path with no binding contributes "unsafe unknown" for every
		// object; the join keeps the object tracked but demotes safety.
		src, other := a, b
		if len(src) == 0 {
			src = b
			other = a
		}
		_ = other
		c := make(mutFact, len(src))
		for k, v := range src {
			c[k] = tensorProv{safe: false, origin: v.origin}
		}
		return c
	}
	c := make(mutFact, len(a))
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			c[k] = tensorProv{safe: false, origin: va.origin}
			continue
		}
		merged := tensorProv{safe: va.safe && vb.safe, origin: va.origin}
		if va.origin != vb.origin {
			merged.origin = ""
		}
		c[k] = merged
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			c[k] = tensorProv{safe: false, origin: vb.origin}
		}
	}
	return c
}

func mutEqual(a, b mutFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

type dataMutScope struct {
	pass *Pass
	// noted holds the rendered receiver expressions of every NoteMutation
	// call in the function: writes to a tensor whose origin appears here are
	// sanctioned.
	noted map[string]bool
	// report is nil during solving; set for the replay pass.
	report func(n ast.Node, root string)
}

func checkDataMut(p *Pass, body *ast.BlockStmt, noted map[string]bool) {
	// Cheap pre-scan: anything that looks like a data write at all?
	touches := false
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if touches {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" && isTensorExpr(p, sel.X) {
			touches = true
		}
		return true
	})
	if !touches {
		return
	}

	sc := &dataMutScope{pass: p, noted: noted}
	cfg := BuildCFG(body)
	spec := FlowSpec[mutFact]{
		Entry: mutFact{},
		Join:  mutJoin,
		Equal: mutEqual,
		Transfer: func(fact mutFact, n ast.Node) mutFact {
			return sc.transfer(fact, n)
		},
	}
	in, _ := SolveForward(cfg, spec)

	sc.report = func(n ast.Node, root string) {
		p.Reportf(n.Pos(), "raw write to %s.Data bypasses the pack-cache mutation version; use a tensor mutator or call %s.NoteMutation() in this function", root, root)
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

func (sc *dataMutScope) transfer(fact mutFact, n ast.Node) mutFact {
	out := fact
	mutated := false
	set := func(obj types.Object, prov tensorProv) {
		if !mutated {
			out = fact.clone()
			mutated = true
		}
		out[obj] = prov
	}

	// Detect writes first (they read the pre-assignment state of aliases).
	sc.checkWrites(out, n)

	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return out
	}
	if len(as.Lhs) != len(as.Rhs) {
		// Multi-value call assignments: every tensor-typed target becomes
		// unsafe-unknown (a call result is not provably fresh).
		for _, lhs := range as.Lhs {
			if obj, _ := directTarget(sc.pass, lhs); obj != nil && isTensorType(sc.pass.TypeOf(lhs)) {
				set(obj, tensorProv{safe: false, origin: types.ExprString(lhs)})
			}
		}
		return out
	}
	for i, lhs := range as.Lhs {
		obj, direct := directTarget(sc.pass, lhs)
		if !direct || obj == nil {
			continue
		}
		rhs := as.Rhs[i]
		switch {
		case isTensorType(sc.pass.TypeOf(lhs)):
			set(obj, sc.tensorRHSProv(out, rhs))
		case isFloatSlice(sc.pass.TypeOf(lhs)):
			if prov, ok := sc.dataAliasProv(out, rhs); ok {
				set(obj, prov)
			} else if _, tracked := out[obj]; tracked {
				// Rebound to something that is not tensor data.
				if !mutated {
					out = fact.clone()
					mutated = true
				}
				delete(out, obj)
			}
		}
	}
	return out
}

// tensorRHSProv classifies the provenance of a tensor-valued expression.
func (sc *dataMutScope) tensorRHSProv(fact mutFact, e ast.Expr) tensorProv {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := sc.pass.Info.Uses[e]; obj != nil {
			if prov, ok := fact[obj]; ok {
				return prov
			}
		}
		return tensorProv{safe: false, origin: e.Name}
	case *ast.SelectorExpr:
		if e.Sel.Name == "Grad" {
			return tensorProv{safe: true, origin: types.ExprString(e)}
		}
		return tensorProv{safe: false, origin: types.ExprString(e)}
	case *ast.CallExpr:
		return sc.tensorCallProv(fact, e)
	case *ast.UnaryExpr, *ast.CompositeLit:
		// &tensor.Tensor{...}: a literal is fresh but its Data slice came
		// from somewhere else; treat as unsafe-unknown.
		return tensorProv{safe: false, origin: types.ExprString(e)}
	}
	return tensorProv{safe: false, origin: types.ExprString(e)}
}

// tensorCallProv classifies tensor-returning calls: constructors, arena and
// graph allocators, Clone/Map, ensureGrad, and data-sharing views.
func (sc *dataMutScope) tensorCallProv(fact mutFact, call *ast.CallExpr) tensorProv {
	origin := types.ExprString(call)
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Package-local helper; unknown.
		return tensorProv{safe: false, origin: origin}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		// tensor.New / tensor.Get / arena.Get etc.
		if isTensorPkgIdent(sc.pass, fun.X) {
			// The dst-returning kernels (AddTo, ScaleInPlace, MatMulNTAcc,
			// ...) pass their first argument through: inherit its
			// provenance. Inheriting keeps the dst's origin so a
			// NoteMutation on the underlying tensor still sanctions writes
			// through the result.
			if (strings.HasSuffix(name, "To") || strings.HasSuffix(name, "InPlace") || strings.HasSuffix(name, "Acc")) &&
				len(call.Args) > 0 && isTensorExpr(sc.pass, call.Args[0]) {
				return sc.tensorRHSProv(fact, call.Args[0])
			}
			// Every other exported tensor-package function that yields a
			// tensor allocates it fresh (constructors, Add/Mul/MatMul/
			// Transpose/..., arena Get): fresh results carry no packed
			// panels, so raw writes to them are harmless.
			return tensorProv{safe: true, origin: origin}
		}
		switch name {
		case "Clone", "Map":
			// Fresh copy, never packable at birth.
			return tensorProv{safe: true, origin: origin}
		case "ensureGrad":
			return tensorProv{safe: true, origin: origin}
		case "Get", "GetLike":
			// Arena methods: recycled buffers drop the packable mark.
			if isArenaType(sc.pass.TypeOf(fun.X)) {
				return tensorProv{safe: true, origin: origin}
			}
		case "Alloc", "AllocLike", "AllocUninit", "AllocLikeUninit":
			// Graph allocators draw from the arena.
			if isGraphType(sc.pass.TypeOf(fun.X)) {
				return tensorProv{safe: true, origin: origin}
			}
		case "Reshape":
			// A view shares its receiver's backing data: inherit, keeping
			// the receiver's origin (noting the receiver sanctions the view).
			return sc.tensorRHSProv(fact, fun.X)
		}
		return tensorProv{safe: false, origin: origin}
	}
	return tensorProv{safe: false, origin: origin}
}

// dataAliasProv reports whether e evaluates to a tensor's data slice (or a
// reslice of one / a tracked alias) and with what provenance.
func (sc *dataMutScope) dataAliasProv(fact mutFact, e ast.Expr) (tensorProv, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := sc.pass.Info.Uses[e]; obj != nil {
			if prov, ok := fact[obj]; ok {
				return prov, true
			}
		}
		return tensorProv{}, false
	case *ast.SelectorExpr:
		if e.Sel.Name == "Data" && isTensorExpr(sc.pass, e.X) {
			return sc.tensorRHSProv(fact, e.X), true
		}
		return tensorProv{}, false
	case *ast.SliceExpr:
		return sc.dataAliasProv(fact, e.X)
	}
	return tensorProv{}, false
}

// checkWrites reports unsanctioned stores in n: index/slice assignments,
// IncDec, and copy destinations rooted at tensor data.
func (sc *dataMutScope) checkWrites(fact mutFact, n ast.Node) {
	flag := func(node ast.Node, prov tensorProv, ok bool) {
		if !ok || prov.safe {
			return
		}
		if prov.origin != "" && sc.noted[prov.origin] {
			return
		}
		if sc.report != nil {
			root := prov.origin
			if root == "" {
				root = "tensor"
			}
			sc.report(node, root)
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				prov, isData := sc.dataAliasProv(fact, idx.X)
				flag(lhs, prov, isData)
			}
		}
	case *ast.IncDecStmt:
		if idx, ok := ast.Unparen(s.X).(*ast.IndexExpr); ok {
			prov, isData := sc.dataAliasProv(fact, idx.X)
			flag(s.X, prov, isData)
		}
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := sc.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
				prov, isData := sc.dataAliasProv(fact, call.Args[0])
				flag(call.Args[0], prov, isData)
			}
		}
	}
}

// isTensorType reports whether t is *tensor.Tensor (or tensor.Tensor) from a
// package whose import path ends in "internal/tensor".
func isTensorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Tensor" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/tensor")
}

func isArenaType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Arena" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/tensor")
}

func isGraphType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Graph" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/autodiff")
}

func isTensorExpr(p *Pass, e ast.Expr) bool {
	return isTensorType(p.TypeOf(e))
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

// isFloatSlice reports whether t is []float64.
func isFloatSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().(*types.Basic)
	return ok && b.Kind() == types.Float64
}
