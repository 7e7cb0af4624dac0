package lint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ovs/internal/parallel"
)

// This file implements the analyzer driver: per-(package × analyzer) fan-out
// over internal/parallel with deterministic output ordering, and an optional
// content-hash incremental cache that skips type-checking and analysis for
// packages whose transitive sources are byte-identical to the previous run.
//
// Determinism contract: diagnostics are ordered by (package path, position,
// analyzer) regardless of worker count. Each (package, analyzer) unit writes
// only its own slot of the results slice, and the merge walks slots in index
// order, so the output is a pure function of the sources.

// cacheVersion invalidates every cache entry when the diagnostic format or
// analysis semantics change. Bump it whenever an analyzer's behavior changes
// in a way that is not visible in the analyzed package's own sources.
const cacheVersion = 1

// A Driver runs a set of analyzers over the module's packages.
type Driver struct {
	Loader    *Loader
	Analyzers []*Analyzer
	// Workers bounds the analysis fan-out; 0 means the process default.
	// A negative value is an error.
	Workers int
	// CacheFile, when non-empty, enables the incremental cache: packages
	// whose transitive content hash matches the stored entry reuse its
	// diagnostics without being parsed or type-checked.
	CacheFile string
}

// A PackageResult is the outcome for one package.
type PackageResult struct {
	Path  string
	Diags []Diagnostic
	// Cached reports whether the diagnostics came from the incremental
	// cache rather than a fresh analysis.
	Cached bool
}

// cacheEntry is the persisted per-package record. Positions are stored
// root-relative so the cache survives a checkout moving directories.
type cacheEntry struct {
	Hash  string      `json:"hash"`
	Diags []cacheDiag `json:"diags,omitempty"`
}

type cacheDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Run analyzes every package of the module and returns per-package results
// in sorted import-path order.
func (d *Driver) Run() ([]PackageResult, error) {
	return d.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation: the serial load loop checks
// ctx between packages and the analysis fan-out stops claiming units once
// ctx is done. A cancelled run returns context.Cause(ctx) and writes no
// cache file, so a later full run cannot see partial results.
func (d *Driver) RunCtx(ctx context.Context) ([]PackageResult, error) {
	if d.Workers < 0 {
		return nil, fmt.Errorf("lint: Workers = %d; want 0 (process default) or a positive count", d.Workers)
	}
	dirs, err := d.Loader.PackageDirs()
	if err != nil {
		return nil, err
	}

	var hashes map[string]string
	cache := map[string]cacheEntry{}
	if d.CacheFile != "" {
		hashes, err = d.packageHashes(dirs)
		if err != nil {
			return nil, err
		}
		if data, err := os.ReadFile(d.CacheFile); err == nil {
			if err := json.Unmarshal(data, &cache); err != nil {
				// A corrupt cache file is a cold cache, not an error.
				cache = map[string]cacheEntry{}
			}
		}
	}

	results := make([]PackageResult, len(dirs))
	var toRun []*Package
	var runIdx []int
	for i, dir := range dirs {
		path := d.Loader.PathFor(dir)
		results[i].Path = path
		if hashes != nil {
			if ent, ok := cache[path]; ok && ent.Hash == hashes[path] {
				results[i].Cached = true
				results[i].Diags = d.inflate(ent.Diags)
				continue
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		// Loading is serial: the loader's file set and package cache are
		// shared mutable state. Analysis below is the parallel part.
		pkg, err := d.Loader.Load(dir)
		if err != nil {
			return nil, err
		}
		toRun = append(toRun, pkg)
		runIdx = append(runIdx, i)
	}

	// Fan out one unit per (package, analyzer). Units only read the shared
	// AST/type info and write their own slot.
	type unit struct{ pkg, an int }
	var units []unit
	for p := range toRun {
		for a := range d.Analyzers {
			units = append(units, unit{p, a})
		}
	}
	raws := make([][]rawDiag, len(units))
	err = parallel.ForWorkersCtx(ctx, d.Workers, len(units), 1, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			raws[u] = runAnalyzer(toRun[units[u].pkg], d.Analyzers[units[u].an])
		}
	})
	if err != nil {
		return nil, err
	}
	for p, pkg := range toRun {
		var raw []rawDiag
		for u, un := range units {
			if un.pkg == p {
				raw = append(raw, raws[u]...)
			}
		}
		diags := finishPackage(pkg, raw)
		results[runIdx[p]].Diags = diags
		if hashes != nil {
			cache[pkg.Path] = cacheEntry{Hash: hashes[pkg.Path], Diags: d.deflate(diags)}
		}
	}

	if d.CacheFile != "" {
		if err := d.writeCache(cache, hashes); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// inflate converts cached root-relative diagnostics back to absolute ones.
func (d *Driver) inflate(cds []cacheDiag) []Diagnostic {
	var out []Diagnostic
	for _, cd := range cds {
		out = append(out, Diagnostic{
			Pos: token.Position{
				Filename: filepath.Join(d.Loader.Root(), filepath.FromSlash(cd.File)),
				Line:     cd.Line,
				Column:   cd.Col,
			},
			Analyzer: cd.Analyzer,
			Message:  cd.Message,
		})
	}
	return out
}

func (d *Driver) deflate(diags []Diagnostic) []cacheDiag {
	var out []cacheDiag
	for _, dg := range diags {
		file := dg.Pos.Filename
		if rel, err := filepath.Rel(d.Loader.Root(), file); err == nil {
			file = filepath.ToSlash(rel)
		}
		out = append(out, cacheDiag{File: file, Line: dg.Pos.Line, Col: dg.Pos.Column, Analyzer: dg.Analyzer, Message: dg.Message})
	}
	return out
}

// writeCache persists the cache, dropping entries for packages that no
// longer exist so the file cannot grow without bound.
func (d *Driver) writeCache(cache map[string]cacheEntry, hashes map[string]string) error {
	for path := range cache {
		if _, ok := hashes[path]; !ok {
			delete(cache, path)
		}
	}
	data, err := json.MarshalIndent(cache, "", "\t")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(d.CacheFile); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(d.CacheFile, append(data, '\n'), 0o644)
}

// configHash captures everything outside the analyzed sources that affects
// diagnostics: the cache format version, the analyzer set, and whether test
// files are loaded.
func (d *Driver) configHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d/tests=%v", cacheVersion, d.Loader.Tests)
	for _, a := range d.Analyzers {
		fmt.Fprintf(h, "/%s", a.Name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// packageHashes computes, for every package directory, a hash over the
// package's own included sources plus the hashes of its module-internal
// imports, transitively. Only a cheap imports-only parse is needed; no
// type-checking happens here.
func (d *Driver) packageHashes(dirs []string) (map[string]string, error) {
	type node struct {
		own     string
		imports []string
	}
	nodes := make(map[string]*node, len(dirs))
	cfg := d.configHash()
	for _, dir := range dirs {
		path := d.Loader.PathFor(dir)
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s\n%s\n", cfg, path)
		imports := map[string]bool{}
		fset := token.NewFileSet()
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			if !includeFile(dir, name) && !(d.Loader.Tests && includeTestFile(dir, name)) {
				continue
			}
			full := filepath.Join(dir, name)
			data, err := os.ReadFile(full)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(h, "%s\n%d\n", name, len(data))
			h.Write(data) //ovslint:ignore ignorederr hash.Hash.Write is documented to never return an error
			f, err := parser.ParseFile(fset, full, data, parser.ImportsOnly)
			if err != nil {
				continue // unparseable files still hash; the load will report
			}
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == d.Loader.Module() || strings.HasPrefix(ip, d.Loader.Module()+"/") {
					imports[ip] = true
				}
			}
		}
		n := &node{own: hex.EncodeToString(h.Sum(nil))}
		for ip := range imports {
			n.imports = append(n.imports, ip)
		}
		sort.Strings(n.imports)
		nodes[path] = n
	}

	// Transitive hash by memoized DFS; import cycles are impossible in
	// well-formed Go, but a defensive marker keeps a broken tree terminating.
	hashes := make(map[string]string, len(nodes))
	var visit func(path string, stack map[string]bool) string
	visit = func(path string, stack map[string]bool) string {
		if h, ok := hashes[path]; ok {
			return h
		}
		n, ok := nodes[path]
		if !ok || stack[path] {
			return "external"
		}
		stack[path] = true
		h := sha256.New()
		fmt.Fprintf(h, "%s\n", n.own)
		for _, ip := range n.imports {
			fmt.Fprintf(h, "%s=%s\n", ip, visit(ip, stack))
		}
		delete(stack, path)
		sum := hex.EncodeToString(h.Sum(nil))
		hashes[path] = sum
		return sum
	}
	for path := range nodes {
		visit(path, map[string]bool{})
	}
	return hashes, nil
}
