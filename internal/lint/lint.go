// Package lint implements ovslint, a stdlib-only static-analysis suite that
// enforces the repository's determinism, pooling, and concurrency invariants.
//
// The OVS training loop (DESIGN.md §10–11) is deterministic and
// allocation-free only by convention: arena tensors must not escape their
// graph, all concurrency must flow through internal/parallel, and
// deterministic paths must never consume map-iteration order or global
// randomness. No compiler checks those conventions; ovslint does. Each
// invariant is guarded by one Analyzer, run over every non-test package of
// the module by cmd/ovslint.
//
// Diagnostics can be suppressed — one site at a time, with a written
// reason — by a comment of the form
//
//	//ovslint:ignore <analyzer> <reason>
//
// placed either at the end of the flagged line or on the line immediately
// above it. A directive with a missing analyzer name, an unknown analyzer
// name, or no reason is itself reported as a diagnostic, so suppressions
// stay auditable.
//
// Only the standard library (go/parser, go/ast, go/token, go/types) is
// used; there is no dependency on golang.org/x/tools.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ovslint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces.
	Doc string
	// Run inspects the package held by the Pass and reports diagnostics
	// through Pass.Reportf.
	Run func(*Pass)
	// Tests marks analyzers whose invariants also hold inside _test.go
	// files; cmd/ovslint -tests runs only these over test sources.
	Tests bool
}

// All returns the full ovslint suite in deterministic order: the five
// syntactic analyzers first, then the three CFG/dataflow analyzers.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter, GlobalRand, NakedGo, FloatEq, IgnoredErr,
		ArenaEscape, LockBalance, ErrFlow,
	}
}

// knownAnalyzerNames holds every valid //ovslint:ignore target, used to
// reject directives that name an analyzer that does not exist (a typo there
// would otherwise silently suppress nothing).
func knownAnalyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// PkgPath is the package's import path (e.g. "ovs/internal/tensor").
	// Analyzers that only apply to deterministic packages consult it.
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	diags *[]rawDiag
}

type rawDiag struct {
	pos      token.Pos
	analyzer string
	message  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, rawDiag{pos: pos, analyzer: p.Analyzer.Name, message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil when type information is missing
// (e.g. in a package that failed to fully type-check). Analyzers must treat
// nil as "unknown" and stay silent rather than crash.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// A Diagnostic is one resolved finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// IgnorePrefix is the comment prefix that suppresses a diagnostic.
const IgnorePrefix = "//ovslint:ignore"

// ignoreDirective is one parsed //ovslint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	file     string
	line     int
}

// collectIgnores parses every //ovslint:ignore directive in the files,
// returning the well-formed directives plus a diagnostic for each malformed
// one (missing or unknown analyzer name, or missing reason).
func collectIgnores(fset *token.FileSet, files []*ast.File) ([]ignoreDirective, []rawDiag) {
	known := knownAnalyzerNames()
	var dirs []ignoreDirective
	var malformed []rawDiag
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnorePrefix)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				switch {
				case len(fields) == 0:
					malformed = append(malformed, rawDiag{pos: c.Pos(), analyzer: "ovslint",
						message: "malformed ignore directive: want //ovslint:ignore <analyzer> <reason>"})
				case !known[fields[0]]:
					malformed = append(malformed, rawDiag{pos: c.Pos(), analyzer: "ovslint",
						message: fmt.Sprintf("ignore directive names unknown analyzer %q", fields[0])})
				case len(fields) < 2:
					malformed = append(malformed, rawDiag{pos: c.Pos(), analyzer: "ovslint",
						message: fmt.Sprintf("ignore directive for %q has no reason; every suppression must say why", fields[0])})
				default:
					dirs = append(dirs, ignoreDirective{
						analyzer: fields[0],
						reason:   strings.Join(fields[1:], " "),
						file:     pos.Filename,
						line:     pos.Line,
					})
				}
			}
		}
	}
	return dirs, malformed
}

// suppressionIndex answers "is the diagnostic at (file, line) suppressed for
// this analyzer?". A directive covers its own line and the next line that is
// not itself a directive, so directives can either trail the flagged line or
// stack on the lines immediately above it.
type suppressionIndex struct {
	// covered maps analyzer -> "file:line" -> true.
	covered map[string]map[string]bool
}

func buildSuppressionIndex(dirs []ignoreDirective) *suppressionIndex {
	directiveLines := make(map[string]bool) // "file:line" occupied by any directive
	for _, d := range dirs {
		directiveLines[fmt.Sprintf("%s:%d", d.file, d.line)] = true
	}
	idx := &suppressionIndex{covered: make(map[string]map[string]bool)}
	add := func(analyzer, file string, line int) {
		m := idx.covered[analyzer]
		if m == nil {
			m = make(map[string]bool)
			idx.covered[analyzer] = m
		}
		m[fmt.Sprintf("%s:%d", file, line)] = true
	}
	for _, d := range dirs {
		add(d.analyzer, d.file, d.line)
		// Walk past any stacked directives to the first real line below.
		target := d.line + 1
		for directiveLines[fmt.Sprintf("%s:%d", d.file, target)] {
			target++
		}
		add(d.analyzer, d.file, target)
	}
	return idx
}

func (s *suppressionIndex) suppressed(analyzer, file string, line int) bool {
	return s.covered[analyzer][fmt.Sprintf("%s:%d", file, line)]
}

// RunPackage runs the analyzers over one loaded package and returns the
// unsuppressed diagnostics sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []rawDiag
	for _, a := range analyzers {
		raw = append(raw, runAnalyzer(pkg, a)...)
	}
	return finishPackage(pkg, raw)
}

// runAnalyzer runs one analyzer over one package and returns its raw
// diagnostics. It touches only the analyzer's own output slice, so distinct
// (package, analyzer) units may run concurrently: analyzers read the shared
// AST and type info but never write them.
func runAnalyzer(pkg *Package, a *Analyzer) []rawDiag {
	var raw []rawDiag
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		PkgPath:  pkg.Path,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		diags:    &raw,
	}
	a.Run(pass)
	return raw
}

// finishPackage applies the package's suppression directives to the raw
// diagnostics and returns the survivors sorted by position.
func finishPackage(pkg *Package, raw []rawDiag) []Diagnostic {
	dirs, malformed := collectIgnores(pkg.Fset, pkg.Files)
	idx := buildSuppressionIndex(dirs)

	var out []Diagnostic
	for _, d := range raw {
		pos := pkg.Fset.Position(d.pos)
		if idx.suppressed(d.analyzer, pos.Filename, pos.Line) {
			continue
		}
		out = append(out, Diagnostic{Pos: pos, Analyzer: d.analyzer, Message: d.message})
	}
	// Malformed directives are never suppressible; a broken suppression
	// must not be able to hide itself.
	for _, d := range malformed {
		out = append(out, Diagnostic{Pos: pkg.Fset.Position(d.pos), Analyzer: d.analyzer, Message: d.message})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// deterministicPkgs lists the packages whose outputs must be bitwise
// reproducible across runs and worker counts (DESIGN.md §7, §10). mapiter
// and globalrand only fire inside these.
var deterministicPkgs = map[string]bool{
	"tensor":     true,
	"autodiff":   true,
	"nn":         true,
	"core":       true,
	"sim":        true,
	"experiment": true,
}

// isDeterministicPkg reports whether the import path names one of the
// module's deterministic packages.
func isDeterministicPkg(path string) bool {
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	return deterministicPkgs[base] && strings.Contains(path, "internal/")
}

// isFloat reports whether t is (or has underlying) float32/float64 or an
// untyped float constant type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0
}

// errorType is the predeclared error interface type.
var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the predeclared error type.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// approvedCompareHelper matches names of functions inside which exact
// floating-point comparison is considered intentional: tolerance helpers
// and NaN/sentinel predicates.
var approvedCompareHelper = regexp.MustCompile(`(?i)(almost|approx|close|within|tol|isnan)`)

// enclosingFuncName returns the name of the innermost named function or
// method declaration whose body contains pos, or "" when pos is at package
// level. Function literals inherit the name of the declaration they appear
// in.
func enclosingFuncName(file *ast.File, pos token.Pos) string {
	name := ""
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= pos && pos <= fd.Body.End() {
			name = fd.Name.Name
			break
		}
	}
	return name
}
