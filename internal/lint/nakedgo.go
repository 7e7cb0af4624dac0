package lint

import (
	"go/ast"
	"strings"
)

// NakedGo flags `go` statements outside internal/parallel. Raw goroutines
// bypass the deterministic worker pool (DESIGN.md §10): they are unbounded,
// their interleaving is scheduler-dependent, and nothing joins them before
// results are read. All fan-out must flow through parallel.RunCtx, which
// bounds the width, joins every helper and hands each task to exactly one
// goroutine, so floating-point reduction order is fixed.
var NakedGo = &Analyzer{
	Name:  "nakedgo",
	Doc:   "flags go statements outside internal/parallel; raw goroutines bypass the deterministic worker pool",
	Tests: true,
	Run: func(p *Pass) {
		if strings.HasSuffix(p.PkgPath, "internal/parallel") {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(), "naked go statement: route concurrency through internal/parallel so scheduling stays deterministic and bounded")
				}
				return true
			})
		}
	},
}
