package lint

import (
	"go/ast"
	"go/token"
)

// This file implements the intraprocedural control-flow graph the dataflow
// analyzers (arenaescape, lockbalance, errflow) run over. It builds
// basic blocks from one function body using only go/ast — no x/tools — and
// covers the full statement grammar: if/else chains, all three for forms,
// range, expression and type switches (including fallthrough), select,
// labeled break/continue, goto, and defer.
//
// Design notes:
//
//   - Blocks hold the statements (and nothing else) executed straight-line in
//     program order. Control conditions (if/for/switch tag expressions) are
//     recorded as the block's Cond node so transfer functions can see reads
//     inside conditions without the builder having to split expressions out
//     of their statements.
//   - A terminating statement (return, goto, break, continue, panic,
//     os.Exit/log.Fatal-style calls) ends its block. Return edges go to the
//     synthetic Exit block; panic-like calls end the block with NO exit edge,
//     so a path that dies never reaches exit-point checks — a mutex held at a
//     panic, or an error dropped on a path that Fatals, is not a finding.
//   - Defer is a plain block node. Deferred calls run at function exit in
//     reverse order, conditional on the defer statement having executed;
//     analyzers that care (lockbalance) interpret DeferStmt nodes in their
//     transfer functions rather than the builder modelling the unwind edges,
//     which would multiply blocks for no analysis benefit.
//   - Function literals are opaque: the builder records the Go/defer/assign
//     statement that mentions them but never descends into their bodies. Each
//     FuncLit gets its own CFG from FuncCFGs.
//
// The graph is deterministic: block indices follow construction order, which
// follows source order, so any analyzer iterating Blocks is stable.

// A Block is one basic block: statements executed without branching, then a
// transfer of control to one of Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks (construction order).
	Index int
	// Nodes are the statements of the block in execution order.
	Nodes []ast.Node
	// Cond is the control expression evaluated at the end of the block to
	// choose a successor (if/for condition, switch tag, type-switch assign,
	// range expression), or nil for unconditional transfer.
	Cond ast.Expr
	// Succs are the possible successor blocks in deterministic order
	// (then-branch before else, case order, loop body before loop exit).
	Succs []*Block
}

// A CFG is the control-flow graph of one function body. Blocks[0] is the
// entry block; Exit is the synthetic exit reached by falling off the end of
// the function and by every return.
type CFG struct {
	Blocks []*Block
	Exit   *Block
}

// addEdge appends succ to b.Succs unless the edge already exists.
func addEdge(b, succ *Block) {
	for _, s := range b.Succs {
		if s == succ {
			return
		}
	}
	b.Succs = append(b.Succs, succ)
}

// cfgBuilder carries the construction state. cur == nil means the current
// point is unreachable (just after a terminator) — statements still get
// blocks (they may be labeled goto targets) but no fall-in edge.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// breakTargets / continueTargets are stacks of enclosing targets. An
	// entry's label is "" for the bare statement form.
	breakTargets    []branchTarget
	continueTargets []branchTarget

	// labelBlocks maps a label name to the block its labeled statement
	// starts, for goto resolution (both directions).
	labelBlocks map[string]*Block
	// pendingGotos are forward gotos awaiting their label's block.
	pendingGotos []pendingGoto
}

type branchTarget struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:         &CFG{},
		labelBlocks: make(map[string]*Block),
	}
	entry := b.newBlock()
	b.cfg.Exit = &Block{Index: -1}
	b.cur = entry
	b.stmtList(body.List)
	// Falling off the end of the body reaches the exit.
	if b.cur != nil {
		addEdge(b.cur, b.cfg.Exit)
	}
	for _, g := range b.pendingGotos {
		if target, ok := b.labelBlocks[g.label]; ok {
			addEdge(g.from, target)
		}
		// A goto to a label the builder never saw (malformed source) is
		// dropped; the type checker already rejects it.
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// startBlock opens a fresh block with a fall-in edge from the current one
// (when reachable) and makes it current.
func (b *cfgBuilder) startBlock() *Block {
	blk := b.newBlock()
	if b.cur != nil {
		addEdge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

// emit appends a straight-line statement to the current block, opening a new
// one if the current point is unreachable (dead code still gets blocks so the
// structure stays inspectable, it just has no predecessors).
func (b *cfgBuilder) emit(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, s)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the name of the wrapping LabeledStmt
// ("" when unlabeled) so loops and switches can register labeled
// break/continue targets.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The labeled statement starts a new block so goto (from either
		// direction) has a target.
		blk := b.startBlock()
		b.labelBlocks[s.Label.Name] = blk
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.switchBody(s.Body, s.Tag, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		// The assign statement (x := y.(type) or the bare y.(type)) is
		// evaluated once; record it in the dispatch block.
		b.emit(s.Assign)
		b.switchBody(s.Body, nil, label)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	case *ast.ReturnStmt:
		b.emit(s)
		if b.cur != nil {
			addEdge(b.cur, b.cfg.Exit)
		}
		b.cur = nil

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ExprStmt:
		b.emit(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isTerminalCall(call) {
			// panic/os.Exit-style: the path dies here, with no edge to Exit.
			b.cur = nil
		}

	default:
		// Assignments, declarations, defer, go, send, inc/dec, empty: plain
		// block nodes.
		b.emit(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.emit(s.Init)
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	condBlock := b.cur
	condBlock.Cond = s.Cond

	thenBlock := b.newBlock()
	addEdge(condBlock, thenBlock)
	b.cur = thenBlock
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		elseBlock := b.newBlock()
		addEdge(condBlock, elseBlock)
		b.cur = elseBlock
		b.stmt(s.Else, "")
		elseEnd = b.cur
	}

	// Join point. Only create it if some branch can reach it.
	if !hasElse {
		after := b.newBlock()
		addEdge(condBlock, after)
		if thenEnd != nil {
			addEdge(thenEnd, after)
		}
		b.cur = after
		return
	}
	if thenEnd == nil && elseEnd == nil {
		b.cur = nil
		return
	}
	after := b.newBlock()
	if thenEnd != nil {
		addEdge(thenEnd, after)
	}
	if elseEnd != nil {
		addEdge(elseEnd, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.emit(s.Init)
	}
	header := b.startBlock()
	header.Cond = s.Cond

	after := b.newBlock()
	// The post block exists even when s.Post is nil so continue always has a
	// distinct target before the header (keeps edge shape uniform).
	post := b.newBlock()
	if s.Post != nil {
		post.Nodes = append(post.Nodes, s.Post)
	}
	addEdge(post, header)

	body := b.newBlock()
	addEdge(header, body)
	if s.Cond != nil {
		addEdge(header, after)
	}

	b.pushTargets(label, after, post)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		addEdge(b.cur, post)
	}
	b.popTargets()

	// An infinite loop (no cond, no break reaching after) leaves after
	// unreachable; that is correct — code following `for {}` is dead.
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	header := b.startBlock()
	// The RangeStmt itself is the header node: analyzers see the range
	// expression and the key/value bind there once per iteration.
	header.Nodes = append(header.Nodes, s)
	header.Cond = s.X

	after := b.newBlock()
	body := b.newBlock()
	addEdge(header, body)
	addEdge(header, after)

	b.pushTargets(label, after, header)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		addEdge(b.cur, header)
	}
	b.popTargets()
	b.cur = after
}

// switchBody lowers the clause list shared by switch and type switch. tag is
// the dispatch expression (nil for type switches and tagless switches).
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, tag ast.Expr, label string) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	dispatch := b.cur
	dispatch.Cond = tag

	after := b.newBlock()

	// break (and labeled break naming this switch) exits the switch; continue
	// passes through to the enclosing loop, so only a break target is pushed.
	b.breakTargets = append(b.breakTargets, branchTarget{label: label, block: after})
	if label != "" {
		b.breakTargets = append(b.breakTargets, branchTarget{label: "", block: after})
	}

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		addEdge(dispatch, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		addEdge(dispatch, after)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		// Record only the case expressions — not the clause itself. The body
		// statements are lowered individually below; recording the whole
		// CaseClause would put the body's reads at the top of the block a
		// second time, out of execution order, and mask flow bugs inside it.
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		b.stmtListFallthrough(cc.Body, blocks, i)
		if b.cur != nil {
			addEdge(b.cur, after)
		}
	}

	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if label != "" {
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	}
	b.cur = after
}

// stmtListFallthrough lowers a case body, wiring a trailing fallthrough to
// the next clause's block.
func (b *cfgBuilder) stmtListFallthrough(list []ast.Stmt, blocks []*Block, i int) {
	for _, s := range list {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			if b.cur != nil && i+1 < len(blocks) {
				addEdge(b.cur, blocks[i+1])
			}
			b.cur = nil
			return
		}
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	dispatch := b.cur

	after := b.newBlock()
	b.breakTargets = append(b.breakTargets, branchTarget{label: label, block: after})
	if label != "" {
		b.breakTargets = append(b.breakTargets, branchTarget{label: "", block: after})
	}

	anyClause := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		anyClause = true
		blk := b.newBlock()
		addEdge(dispatch, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.cur.Nodes = append(b.cur.Nodes, cc.Comm)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			addEdge(b.cur, after)
		}
	}

	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if label != "" {
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	}
	if !anyClause {
		// select{} blocks forever: after is unreachable, like `for {}`.
		b.cur = after
		return
	}
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	if b.cur == nil {
		// break/continue in dead code: nothing to wire.
		return
	}
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := findTarget(b.breakTargets, label); t != nil {
			addEdge(b.cur, t)
		}
		b.cur = nil
	case token.CONTINUE:
		if t := findTarget(b.continueTargets, label); t != nil {
			addEdge(b.cur, t)
		}
		b.cur = nil
	case token.GOTO:
		if target, ok := b.labelBlocks[label]; ok {
			addEdge(b.cur, target)
		} else {
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: label})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled by stmtListFallthrough; one appearing anywhere else is
		// malformed source. Treat as a terminator.
		b.cur = nil
	}
}

func (b *cfgBuilder) pushTargets(label string, breakTo, continueTo *Block) {
	b.breakTargets = append(b.breakTargets, branchTarget{label: "", block: breakTo})
	b.continueTargets = append(b.continueTargets, branchTarget{label: "", block: continueTo})
	if label != "" {
		b.breakTargets = append(b.breakTargets, branchTarget{label: label, block: breakTo})
		b.continueTargets = append(b.continueTargets, branchTarget{label: label, block: continueTo})
	}
}

func (b *cfgBuilder) popTargets() {
	// pushTargets pushed one or two entries per stack; pop until the bare
	// entry for this loop is gone. Labeled entries sit above their bare one.
	pop := func(stack []branchTarget) []branchTarget {
		n := len(stack) - 1
		if n >= 0 && stack[n].label != "" {
			n--
		}
		return stack[:n]
	}
	b.breakTargets = pop(b.breakTargets)
	b.continueTargets = pop(b.continueTargets)
}

// findTarget resolves a break/continue label against a target stack: the
// innermost matching entry wins; "" matches the innermost bare entry.
func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

// isTerminalCall reports whether a call statement never returns: the builtin
// panic, os.Exit, runtime.Goexit, and the log.Fatal / testing Fatal/Skip
// families. Syntactic matching is deliberate — the builder has no type
// information, and a false negative only adds a conservative exit edge.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit":
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "os" {
				return true
			}
		case "Goexit":
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "runtime" {
				return true
			}
		case "Fatal", "Fatalf", "Fatalln", "Skip", "Skipf", "SkipNow", "FailNow":
			return true
		}
	}
	return false
}

// FuncBodies returns every function body in the file in source order: named
// declarations first-level, plus each function literal anywhere inside. The
// name is the declaration's name; literals get the enclosing declaration's
// name with a ".func" suffix.
func FuncBodies(f *ast.File) []FuncBody {
	var out []FuncBody
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, FuncBody{Name: fd.Name.Name, Type: fd.Type, Body: fd.Body})
		name := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, FuncBody{Name: name + ".func", Type: lit.Type, Body: lit.Body, Lit: true})
				// Descend further: nested literals get their own entries.
			}
			return true
		})
	}
	return out
}

// FuncBody is one analyzable function: a declaration or a literal.
type FuncBody struct {
	Name string
	Type *ast.FuncType
	Body *ast.BlockStmt
	// Lit marks a function literal.
	Lit bool
}
