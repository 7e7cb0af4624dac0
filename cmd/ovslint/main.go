// Command ovslint runs the repository's custom static-analysis suite
// (internal/lint) over the module's non-test packages and exits non-zero on
// any unsuppressed diagnostic.
//
// Usage:
//
//	go run ./cmd/ovslint ./...
//	go run ./cmd/ovslint ./internal/tensor ./internal/sim
//	go run ./cmd/ovslint -analyzers datamut,lockbalance ./...
//	go run ./cmd/ovslint -tests ./...
//	go run ./cmd/ovslint -json ./... > lint.json
//	go run ./cmd/ovslint -cache .ovslint-cache.json ./...
//	go run ./cmd/ovslint -list
//
// Package arguments restrict which packages are *reported*; the whole module
// is always loaded so cross-package types resolve. A diagnostic is silenced
// by an `//ovslint:ignore <analyzer> <reason>` comment on the flagged line
// or the line immediately above it.
//
// -tests additionally loads in-package _test.go files and restricts the run
// to the analyzers whose invariants hold in test code too. -cache enables
// the content-hash incremental cache: packages whose transitive sources are
// unchanged since the recorded run are neither type-checked nor re-analyzed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ovs/internal/cliutil"
	"ovs/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	verbose := flag.Bool("v", false, "print a per-package summary to stderr")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	analyzers := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	tests := flag.Bool("tests", false, "also lint in-package _test.go files (test-safe analyzers only)")
	cacheFile := flag.String("cache", "", "path of the incremental cache file (empty disables caching)")
	workers := flag.Int("workers", 0, "analysis worker count (0 = all cores)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no deadline)")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "ovslint: -workers %d: want 0 (all cores) or a positive count\n", *workers)
		os.Exit(2)
	}

	ctx, cancel := cliutil.RootContext(*timeout)
	defer cancel()

	if *list {
		for _, a := range lint.All() {
			scope := "prod"
			if a.Tests {
				scope = "prod+test"
			}
			fmt.Printf("%-12s %-10s %s\n", a.Name, scope, a.Doc)
		}
		return
	}

	selected, err := selectAnalyzers(*analyzers, *tests)
	if err != nil {
		fatal(err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	loader.Tests = *tests

	driver := &lint.Driver{Loader: loader, Analyzers: selected, Workers: *workers, CacheFile: *cacheFile}
	results, err := driver.RunCtx(ctx)
	if err != nil {
		fatal(err)
	}
	for _, terr := range loader.TypeErrors {
		fmt.Fprintf(os.Stderr, "ovslint: type error (best-effort linting continues): %v\n", terr)
	}

	keep := packageFilter(root, cwd, flag.Args())
	type jsonDiag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	jsonDiags := []jsonDiag{}
	total := 0
	for _, res := range results {
		if !keep(root, res.Path) {
			continue
		}
		if *verbose {
			from := "analyzed"
			if res.Cached {
				from = "cached"
			}
			fmt.Fprintf(os.Stderr, "ovslint: %s: %d diagnostic(s) (%s)\n", res.Path, len(res.Diags), from)
		}
		for _, d := range res.Diags {
			rel := d
			if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			if *jsonOut {
				jsonDiags = append(jsonDiags, jsonDiag{
					File: filepath.ToSlash(rel.Pos.Filename), Line: rel.Pos.Line, Col: rel.Pos.Column,
					Analyzer: rel.Analyzer, Message: rel.Message,
				})
			} else {
				fmt.Println(rel)
			}
			total++
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(jsonDiags); err != nil {
			fatal(err)
		}
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "ovslint: %d diagnostic(s)\n", total)
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -analyzers and -tests flags to the analyzer
// subset to run. In -tests mode only test-safe analyzers are eligible:
// test files legitimately compare floats, range maps, and discard errors
// from cleanup, so the other analyzers would drown signal in noise.
func selectAnalyzers(spec string, tests bool) ([]*lint.Analyzer, error) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	var picked []*lint.Analyzer
	if spec == "" {
		picked = lint.All()
	} else {
		for _, name := range strings.Split(spec, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q (run -list for the suite)", name)
			}
			picked = append(picked, a)
		}
	}
	if tests {
		var testSafe []*lint.Analyzer
		for _, a := range picked {
			if a.Tests {
				testSafe = append(testSafe, a)
			}
		}
		picked = testSafe
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return picked, nil
}

// packageFilter turns CLI patterns ("./...", "./internal/tensor", an import
// path) into a predicate over package import paths. No patterns means
// everything.
func packageFilter(root, cwd string, patterns []string) func(root, pkgPath string) bool {
	if len(patterns) == 0 {
		return func(string, string) bool { return true }
	}
	type rule struct {
		dir       string
		recursive bool
	}
	var rules []rule
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "." || pat == "" {
			rules = append(rules, rule{dir: cwd, recursive: recursive})
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		rules = append(rules, rule{dir: filepath.Clean(dir), recursive: recursive})
	}
	return func(root, pkgPath string) bool {
		// Reconstruct the package directory from its import path: the
		// module path maps to the root, subpackages to subdirectories.
		dir := root
		if i := strings.Index(pkgPath, "/"); i >= 0 {
			dir = filepath.Join(root, filepath.FromSlash(pkgPath[i+1:]))
		}
		for _, r := range rules {
			if dir == r.dir {
				return true
			}
			if r.recursive && strings.HasPrefix(dir+string(filepath.Separator), r.dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ovslint:", err)
	os.Exit(1)
}
