package lint

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureImporter resolves a fixture's imports: module-internal paths go
// through a real Loader (so arenaescape fixtures can import the
// actual tensor and autodiff packages), everything else through the
// standard source importer. The module loader is built lazily — fixtures
// without module imports never pay for it.
type fixtureImporter struct {
	std types.Importer
	mod *Loader
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "ovs" || strings.HasPrefix(path, "ovs/") {
		if fi.mod == nil {
			root, err := FindModuleRoot(".")
			if err != nil {
				return nil, err
			}
			fi.mod, err = NewLoader(root)
			if err != nil {
				return nil, err
			}
		}
		return fi.mod.Import(path)
	}
	return fi.std.Import(path)
}

// sharedFixtureImporter is reused across fixture loads so the module's
// packages type-check once per `go test` process, not once per fixture.
var sharedFixtureImporter = &fixtureImporter{}

// loadFixture parses and type-checks one testdata package, registering it
// under pkgPath so package-scoped analyzers (mapiter, globalrand, nakedgo)
// can be exercised both inside and outside their target packages.
func loadFixture(t *testing.T, fixture, pkgPath string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	if sharedFixtureImporter.std == nil {
		sharedFixtureImporter.std = importer.ForCompiler(fset, "source", nil)
	}
	conf := types.Config{Importer: sharedFixtureImporter}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", fixture, err)
	}
	return &Package{Path: pkgPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
}

// collectWants scans the fixture sources for `// want "regex"` comments.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(src)
		line := 0
		for sc.Scan() {
			line++
			if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
				wants = append(wants, &expectation{file: name, line: line, pattern: regexp.MustCompile(m[1])})
			}
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// checkFixture runs the analyzers over the fixture and requires an exact
// match between unsuppressed diagnostics and want comments.
func checkFixture(t *testing.T, analyzers []*Analyzer, fixture, pkgPath string) {
	t.Helper()
	pkg := loadFixture(t, fixture, pkgPath)
	diags := RunPackage(pkg, analyzers)
	wants := collectWants(t, pkg)
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestMapIterFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{MapIter}, "mapiter", "ovs/internal/tensor")
}

func TestMapIterSilentOutsideDeterministicPackages(t *testing.T) {
	pkg := loadFixture(t, "mapiter", "ovs/internal/trafficio")
	if diags := RunPackage(pkg, []*Analyzer{MapIter}); len(diags) != 0 {
		t.Fatalf("mapiter fired outside deterministic packages: %v", diags)
	}
}

func TestGlobalRandFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{GlobalRand}, "globalrand", "ovs/internal/sim")
}

func TestGlobalRandSilentOutsideDeterministicPackages(t *testing.T) {
	pkg := loadFixture(t, "globalrand", "ovs/cmd/ovsrun")
	if diags := RunPackage(pkg, []*Analyzer{GlobalRand}); len(diags) != 0 {
		t.Fatalf("globalrand fired outside deterministic packages: %v", diags)
	}
}

func TestNakedGoFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{NakedGo}, "nakedgo", "ovs/internal/core")
}

func TestNakedGoAllowedInParallel(t *testing.T) {
	pkg := loadFixture(t, "nakedgo", "ovs/internal/parallel")
	if diags := RunPackage(pkg, []*Analyzer{NakedGo}); len(diags) != 0 {
		t.Fatalf("nakedgo fired inside internal/parallel: %v", diags)
	}
}

func TestFloatEqFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{FloatEq}, "floateq", "ovs/internal/roadnet")
}

func TestIgnoredErrFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{IgnoredErr}, "ignorederr", "ovs/internal/roadnet")
}

func TestArenaEscapeFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{ArenaEscape}, "arenaescape", "ovs/internal/nn")
}

func TestLockBalanceFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{LockBalance}, "lockbalance", "ovs/internal/tensor")
}

func TestErrFlowFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{ErrFlow}, "errflow", "ovs/internal/trafficio")
}

// TestSuppressionSilencesOnlyNamedAnalyzer runs two analyzers over a line
// that trips both with a directive naming just one: the named analyzer must
// be silenced, the other must still fire. Stacked directives silence both.
func TestSuppressionSilencesOnlyNamedAnalyzer(t *testing.T) {
	checkFixture(t, []*Analyzer{FloatEq, IgnoredErr}, "suppress", "ovs/internal/roadnet")
}

func TestMalformedDirectivesAreDiagnosed(t *testing.T) {
	pkg := loadFixture(t, "malformed", "ovs/internal/roadnet")
	diags := RunPackage(pkg, All())
	wantMsgs := []string{"malformed ignore directive", "has no reason", "unknown analyzer"}
	if len(diags) != len(wantMsgs) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(wantMsgs), diags)
	}
	for i, d := range diags {
		if d.Analyzer != "ovslint" {
			t.Errorf("diagnostic %d: analyzer = %q, want ovslint", i, d.Analyzer)
		}
		if !strings.Contains(d.Message, wantMsgs[i]) {
			t.Errorf("diagnostic %d: message %q does not contain %q", i, d.Message, wantMsgs[i])
		}
	}
}

func TestEveryAnalyzerHasNameAndDoc(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 8 {
		t.Errorf("suite has %d analyzers, want at least 8", len(seen))
	}
}

// TestSelfLint loads the whole module the same way cmd/ovslint does and
// requires zero unsuppressed diagnostics — the repository must stay clean
// under its own analyzers. Skipped under -short: type-checking the module
// plus its stdlib imports from source takes a few seconds.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint loads the whole module; skipped under -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(loader.TypeErrors) != 0 {
		t.Fatalf("module does not type-check: %v", loader.TypeErrors)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the walk is missing directories", len(pkgs))
	}
	total := 0
	for _, pkg := range pkgs {
		for _, d := range RunPackage(pkg, All()) {
			t.Errorf("%s", d)
			total++
		}
	}
	if total > 0 {
		t.Logf("%d unsuppressed diagnostics; fix them or add //ovslint:ignore with a reason", total)
	}
}

// TestLoadAllCancelled checks that a load under an already-cancelled
// context stops before the first package and returns the cancel cause.
func TestLoadAllCancelled(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("lint budget exhausted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(sentinel)
	pkgs, err := loader.LoadAll(ctx)
	if !errors.Is(err, sentinel) {
		t.Fatalf("LoadAll(cancelled) err = %v, want the cancel cause", err)
	}
	if pkgs != nil {
		t.Fatalf("LoadAll(cancelled) returned %d packages, want none", len(pkgs))
	}
}

// TestDiagnosticFormat pins the file:line:col: [analyzer] message rendering
// CI greps for.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "floateq",
		Message:  "msg",
	}
	if got, want := d.String(), "x.go:3:7: [floateq] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func ExampleAll() {
	for _, a := range All() {
		fmt.Println(a.Name)
	}
	// Output:
	// mapiter
	// globalrand
	// nakedgo
	// floateq
	// ignorederr
	// arenaescape
	// lockbalance
	// errflow
}
