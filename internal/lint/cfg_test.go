package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// buildTestCFG parses one function body and builds its CFG.
func buildTestCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nfunc mark(string) {}\n\nfunc f(c chan int, x int) {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return BuildCFG(fd.Body)
		}
	}
	t.Fatal("function f not found")
	return nil
}

// exitMarkers solves a reaching-markers dataflow over the CFG: the returned
// set holds every mark("...") literal that lies on some path from entry to
// the exit block. It exercises BuildCFG and SolveForward together — a wrong
// edge shows up as a marker wrongly present or absent.
func exitMarkers(cfg *CFG) []string {
	type fact = map[string]bool
	spec := FlowSpec[fact]{
		Entry: fact{},
		Join: func(a, b fact) fact {
			if len(a) == 0 {
				return b
			}
			if len(b) == 0 {
				return a
			}
			c := make(fact, len(a)+len(b))
			for k := range a {
				c[k] = true
			}
			for k := range b {
				c[k] = true
			}
			return c
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(f fact, n ast.Node) fact {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return f
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return f
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "mark" || len(call.Args) != 1 {
				return f
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				return f
			}
			out := make(fact, len(f)+1)
			for k := range f {
				out[k] = true
			}
			out[strings.Trim(lit.Value, `"`)] = true
			return out
		},
	}
	_, out := SolveForward(cfg, spec)
	var names []string
	for k := range out[cfg.Exit] {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func wantMarkers(t *testing.T, body string, want ...string) {
	t.Helper()
	cfg := buildTestCFG(t, body)
	got := exitMarkers(cfg)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("markers reaching exit = %v, want %v", got, want)
	}
}

func TestCFGIfElse(t *testing.T) {
	wantMarkers(t, `
	if x > 0 {
		mark("then")
	} else {
		mark("else")
	}
	mark("after")`, "after", "else", "then")
}

func TestCFGIfWithoutElseSkips(t *testing.T) {
	wantMarkers(t, `
	if x > 0 {
		mark("then")
		return
	}
	mark("after")`, "after", "then")
}

func TestCFGForZeroIterationPath(t *testing.T) {
	// The loop body is optional: "after" must be reachable without "body".
	cfg := buildTestCFG(t, `
	for i := 0; i < x; i++ {
		mark("body")
	}
	mark("after")`)
	got := exitMarkers(cfg)
	if strings.Join(got, ",") != "after,body" {
		t.Fatalf("markers = %v", got)
	}
}

func TestCFGLabeledContinueAndBreak(t *testing.T) {
	wantMarkers(t, `
outer:
	for i := 0; i < x; i++ {
		for {
			mark("inner")
			if x == 1 {
				continue outer
			}
			if x == 2 {
				break outer
			}
			mark("tail")
		}
	}
	mark("after")`, "after", "inner", "tail")
}

func TestCFGLabeledContinueSkipsDeadTail(t *testing.T) {
	// Code after an unconditional labeled continue is unreachable.
	wantMarkers(t, `
outer:
	for i := 0; i < x; i++ {
		for {
			mark("inner")
			continue outer
			mark("dead")
		}
	}
	mark("after")`, "after", "inner")
}

func TestCFGGoto(t *testing.T) {
	wantMarkers(t, `
	mark("start")
	goto end
	mark("dead")
end:
	mark("end")`, "end", "start")
}

func TestCFGGotoBackward(t *testing.T) {
	wantMarkers(t, `
	i := 0
again:
	mark("loop")
	i++
	if i < x {
		goto again
	}
	mark("done")`, "done", "loop")
}

func TestCFGSelect(t *testing.T) {
	wantMarkers(t, `
	select {
	case <-c:
		mark("recv")
	case c <- 1:
		mark("send")
	default:
		mark("def")
	}
	mark("after")`, "after", "def", "recv", "send")
}

func TestCFGEmptySelectNeverExits(t *testing.T) {
	wantMarkers(t, `
	mark("before")
	select {}
	mark("dead")`)
	// No markers reach exit: the empty select blocks forever, so even
	// "before" lies on no path to the exit block.
}

func TestCFGSwitchFallthrough(t *testing.T) {
	wantMarkers(t, `
	switch x {
	case 1:
		mark("one")
		fallthrough
	case 2:
		mark("two")
	default:
		mark("def")
	}
	mark("after")`, "after", "def", "one", "two")
}

func TestCFGSwitchWithoutDefaultHasSkipEdge(t *testing.T) {
	wantMarkers(t, `
	switch x {
	case 1:
		mark("one")
	}
	mark("after")`, "after", "one")
}

func TestCFGPanicTerminatesPath(t *testing.T) {
	wantMarkers(t, `
	if x == 0 {
		mark("doomed")
		panic("boom")
	}
	mark("after")`, "after")
}

func TestCFGDeferInLoop(t *testing.T) {
	// Defer statements are ordinary block nodes; the builder must not choke
	// on one inside a loop, and the after-path stays reachable.
	wantMarkers(t, `
	for i := 0; i < x; i++ {
		defer mark("deferred")
		mark("body")
	}
	mark("after")`, "after", "body")
}

func TestCFGStructure(t *testing.T) {
	cfg := buildTestCFG(t, `
	if x > 0 {
		return
	}
	mark("after")`)
	if len(cfg.Exit.Succs) != 0 {
		t.Errorf("exit block has %d successors, want 0", len(cfg.Exit.Succs))
	}
	for i, b := range cfg.Blocks {
		if b.Index != i {
			t.Errorf("block %d has Index %d", i, b.Index)
		}
	}
	// The return must produce an edge into Exit from a non-final block.
	intoExit := 0
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			if s == cfg.Exit {
				intoExit++
			}
		}
	}
	if intoExit < 2 {
		t.Errorf("exit block has %d incoming edges, want at least 2 (return + fall-through)", intoExit)
	}
}

func TestFuncBodiesFindsLiterals(t *testing.T) {
	src := `package p

func a() {
	f := func() {
		g := func() {}
		g()
	}
	f()
}

func b() {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fb := range FuncBodies(file) {
		names = append(names, fb.Name)
	}
	if len(names) != 4 {
		t.Fatalf("FuncBodies found %d bodies (%v), want 4 (a, b, and two literals)", len(names), names)
	}
}

// runSrc type-checks one source file as a package and runs the analyzers on
// it: the end-to-end harness for the CFG cases below, which pin how the
// analyzers' dataflow follows switch-case and if edges.
func runSrc(t *testing.T, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("repro", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Path: "repro", Dir: ".", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	return RunPackage(pkg, analyzers)
}

// TestCFGSwitchCaseLockLeakFlagged: a lock released only on one branch inside
// a switch case leaks on the other path out of the case.
func TestCFGSwitchCaseLockLeakFlagged(t *testing.T) {
	src := `package repro

import "sync"

var mu sync.Mutex
var data map[string]int

func leakInSwitch(x int, c bool) int {
	mu.Lock() // should be flagged: !c path in case 1 returns while held
	switch x {
	case 1:
		if c {
			mu.Unlock()
		}
		return 0
	}
	mu.Unlock()
	return 1
}
`
	diags := runSrc(t, src, []*Analyzer{LockBalance})
	t.Logf("lockbalance diags: %v", diags)
	if len(diags) == 0 {
		t.Error("no diagnostic for lock held on !c path inside switch case")
	}
}

// TestCFGSwitchCaseErrOverwriteFlagged: an error overwritten unread inside a
// switch case body is flagged.
func TestCFGSwitchCaseErrOverwriteFlagged(t *testing.T) {
	src := `package repro

import "errors"

func f() error { return errors.New("x") }

func dropInSwitch(x int) error {
	switch x {
	case 1:
		err := f() // should be flagged: overwritten without a read
		err = f()
		return err
	}
	return nil
}
`
	diags := runSrc(t, src, []*Analyzer{ErrFlow})
	t.Logf("errflow diags: %v", diags)
	if len(diags) == 0 {
		t.Error("no diagnostic for err overwritten unread inside switch case")
	}
}

// TestCFGIfLockLeakFlagged: the switch-free control: a lock released only
// under an if leaks on the fall-through path, flagged exactly once.
func TestCFGIfLockLeakFlagged(t *testing.T) {
	// Same shape without the switch: must be flagged (control).
	src := `package repro

import "sync"

var mu sync.Mutex

func leakPlain(c bool) int {
	mu.Lock()
	if c {
		mu.Unlock()
	}
	return 0
}
`
	diags := runSrc(t, src, []*Analyzer{LockBalance})
	t.Logf("control diags: %v", diags)
	if len(diags) != 1 {
		t.Errorf("control case: got %d diags, want 1", len(diags))
	}
}

// TestCFGPendingErrOverwrittenInSwitchCaseFlagged: an error assigned before a
// switch and overwritten unread in a case body is flagged across the case
// edge.
func TestCFGPendingErrOverwrittenInSwitchCaseFlagged(t *testing.T) {
	src := `package repro2

import "errors"

func g() error { return errors.New("x") }

func dropBeforeSwitch(x int) error {
	err := g() // pending; overwritten in case 1 without any read
	switch x {
	case 1:
		err = g()
		return err
	}
	return err
}
`
	diags := runSrc(t, src, []*Analyzer{ErrFlow})
	t.Logf("errflow diags: %v", diags)
	if len(diags) == 0 {
		t.Error("pending err before switch, overwritten unread in case body, not flagged")
	}
}
