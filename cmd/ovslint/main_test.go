package main

import (
	"path/filepath"
	"strings"
	"testing"

	"ovs/internal/lint"
)

func TestSelectAnalyzers(t *testing.T) {
	var all, testSafe []string
	for _, a := range lint.All() {
		all = append(all, a.Name)
		if a.Tests {
			testSafe = append(testSafe, a.Name)
		}
	}
	cases := []struct {
		name  string
		spec  string
		tests bool
		want  []string
		err   string
	}{
		{name: "default is the whole suite", want: all},
		{name: "subset in the given order", spec: "lockbalance, floateq", want: []string{"lockbalance", "floateq"}},
		{name: "empty names are skipped", spec: "errflow,,", want: []string{"errflow"}},
		{name: "unknown analyzer", spec: "floateq,nosuch", err: `unknown analyzer "nosuch"`},
		{name: "-tests keeps only test-safe analyzers", tests: true, want: testSafe},
		{name: "-tests filters an explicit subset", spec: "floateq,nakedgo", tests: true, want: []string{"nakedgo"}},
		{name: "-tests with no test-safe analyzer left", spec: "floateq,mapiter", tests: true, err: "no analyzers selected"},
		{name: "empty selection", spec: " , ", err: "no analyzers selected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := selectAnalyzers(c.spec, c.tests)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want one containing %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, a := range got {
				names = append(names, a.Name)
			}
			if strings.Join(names, ",") != strings.Join(c.want, ",") {
				t.Fatalf("selected %v, want %v", names, c.want)
			}
		})
	}
}

func TestPackageFilter(t *testing.T) {
	root := filepath.FromSlash("/mod")
	dir := func(rel string) string { return filepath.Join(root, filepath.FromSlash(rel)) }
	cases := []struct {
		name     string
		cwd      string
		patterns []string
		keep     []string
		drop     []string
	}{
		{name: "no patterns", cwd: root, keep: []string{"", "internal/tensor", "cmd/ovslint"}},
		{name: "./...", cwd: root, patterns: []string{"./..."}, keep: []string{"", "internal", "internal/tensor", "cmd/ovslint"}},
		{
			name: "subtree", cwd: root, patterns: []string{"./internal/..."},
			keep: []string{"internal", "internal/tensor", "internal/lint/testdata"},
			drop: []string{"", "cmd/ovslint", "internalx"},
		},
		{
			name: "exact directory", cwd: root, patterns: []string{"./internal/tensor"},
			keep: []string{"internal/tensor"},
			drop: []string{"", "internal", "internal/tensor/sub", "internal/tensorx"},
		},
		{
			name: "module root", cwd: root, patterns: []string{"."},
			keep: []string{""},
			drop: []string{"internal", "internal/tensor"},
		},
		{
			name: "relative to a subdirectory", cwd: dir("internal"), patterns: []string{"./...", "../cmd/ovslint"},
			keep: []string{"internal", "internal/tensor", "cmd/ovslint"},
			drop: []string{"", "cmd/ovsfit"},
		},
		{
			name: "several patterns", cwd: root, patterns: []string{"./internal/sim", dir("cmd") + "/..."},
			keep: []string{"internal/sim", "cmd", "cmd/ovslint"},
			drop: []string{"", "internal/tensor"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			keep := packageFilter(c.cwd, c.patterns)
			for _, rel := range c.keep {
				if !keep(dir(rel)) {
					t.Errorf("%q dropped, want kept", rel)
				}
			}
			for _, rel := range c.drop {
				if keep(dir(rel)) {
					t.Errorf("%q kept, want dropped", rel)
				}
			}
		})
	}
}
