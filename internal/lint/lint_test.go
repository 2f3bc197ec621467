package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// Fake dependency packages for overlay tests: bodyless declarations
// type-check fine and keep the tests independent of stdlib sources.
var fakeStd = map[string]map[string]string{
	"time": {"time.go": `package time
type Time struct{}
func (t Time) Sub(u Time) Duration
func (t Time) IsZero() bool
type Duration int64
const (
	Nanosecond  Duration = 1
	Millisecond Duration = 1e6
	Second      Duration = 1e9
)
func Now() Time
func Since(t Time) Duration
func Sleep(d Duration)
`},
	"os": {"os.go": `package os
func Getenv(key string) string
func LookupEnv(key string) (string, bool)
func Environ() []string
`},
	"math/rand": {"rand.go": `package rand
func Intn(n int) int
func Int63() int64
`},
}

// snippetConfig treats m/model as the single model package.
func snippetConfig() Config {
	return Config{ModelPackages: []string{"model"}}
}

// lintSnippet type-checks src as package m/model plus any extra packages and
// runs the configured rules.
func lintSnippet(t *testing.T, src string, cfg Config, extra map[string]map[string]string) []Diagnostic {
	t.Helper()
	overlay := map[string]map[string]string{
		"m/model": {"m/model/model.go": src},
	}
	for ip, files := range fakeStd {
		overlay[ip] = files
	}
	for ip, files := range extra {
		overlay[ip] = files
	}
	mod, err := LoadOverlay("m", overlay)
	if err != nil {
		t.Fatalf("LoadOverlay: %v", err)
	}
	for _, p := range mod.Sorted() {
		for _, e := range p.TypeErrors {
			t.Fatalf("snippet does not type-check: %v", e)
		}
	}
	return Run(mod, cfg)
}

// rulesOf extracts the rule of each diagnostic, in order.
func rulesOf(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Rule
	}
	return out
}

// wantDiags asserts the exact sequence of (rule, line) pairs.
func wantDiags(t *testing.T, diags []Diagnostic, want ...[2]any) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(diags), diags, len(want))
	}
	for i, w := range want {
		if diags[i].Rule != w[0].(string) || diags[i].Pos.Line != w[1].(int) {
			t.Errorf("diag %d = %s at line %d, want %s at line %d (%s)",
				i, diags[i].Rule, diags[i].Pos.Line, w[0], w[1], diags[i].Message)
		}
	}
}

// TestRepoIsClean is the meta-test: nomadlint must exit clean on the module
// that ships it. Skipped under -short (it type-checks the whole module,
// including stdlib imports from source).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint is not a -short test")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	mod, err := LoadDir(root)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := Run(mod, DefaultConfig())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestBuildTaggedFileExcluded: files behind a build constraint the simulator
// does not ship with are not loaded, matching the compiled build graph, so
// only the untagged file's wall-clock read is reported.
func TestBuildTaggedFileExcluded(t *testing.T) {
	diags := lintSnippet(t, `package model
`, Config{ModelPackages: []string{"model", "hooks"}}, map[string]map[string]string{
		"m/hooks": {
			"m/hooks/hooks.go": "package hooks\n\nimport \"time\"\n\nvar start = time.Now()\n",
			"m/hooks/debug.go": "//go:build debughooks\n\npackage hooks\n\nimport \"time\"\n\nvar debugStart = time.Now()\n",
		},
	})
	wantDiags(t, diags, [2]any{"wallclock", 5})
}
