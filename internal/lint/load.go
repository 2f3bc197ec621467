// Package lint implements nomadlint, a stdlib-only static analyzer for the
// part of the simulator's determinism contract (DESIGN.md) that no run-time
// test can see: model packages must not read wall-clock time, global
// randomness, or the environment; must not push cycle counts through
// floating point; and must not import the host-side observability packages.
// Map-order iteration, goroutines and pool bypasses are caught at run time
// instead, by the byte-identity suites and the zero-allocation tests.
//
// The analyzer is built purely on go/ast, go/parser, go/token, and go/types
// with the source importer — no golang.org/x/tools dependency — so the
// module's go.mod stays empty.
package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path
	Dir   string // directory on disk ("" for overlay packages)
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems. The linter reports them
	// but still runs syntactic rules; semantic rules degrade gracefully on
	// untyped expressions.
	TypeErrors []error
}

// Module is the loaded unit of analysis: every package of one Go module.
type Module struct {
	Path string // module path from go.mod
	Root string // module root directory ("" for overlay modules)
	Fset *token.FileSet
	Pkgs map[string]*Package // import path -> package
}

// Sorted returns the module's packages in import-path order.
func (m *Module) Sorted() []*Package {
	out := make([]*Package, 0, len(m.Pkgs))
	for _, p := range m.Pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// LoadDir loads and type-checks every package under root, the directory
// containing go.mod. Test files (_test.go), hidden directories, and testdata
// trees are skipped, matching the build graph the simulator ships.
func LoadDir(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		mod:  &Module{Path: modPath, Root: root, Fset: fset, Pkgs: map[string]*Package{}},
		std:  importer.ForCompiler(fset, "source", nil),
		srcs: map[string]map[string]string{},
	}

	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		files := map[string]string{}
		for _, e := range ents {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			files[filepath.Join(dir, name)] = string(src)
		}
		if len(files) > 0 {
			ld.srcs[ip] = files
			ld.mod.Pkgs[ip] = &Package{Path: ip, Dir: dir}
		}
	}

	for ip := range ld.mod.Pkgs {
		if _, err := ld.check(ip); err != nil {
			return nil, err
		}
	}
	return ld.mod, nil
}

// LoadOverlay type-checks an in-memory module: overlay maps an import path
// to its files (name -> source). Paths under modPath are module-local; any
// other overlay path shadows the corresponding stdlib or external package,
// letting tests supply fast fake dependencies (bodyless declarations type-
// check fine). Imports not found in the overlay fall back to the stdlib
// source importer.
func LoadOverlay(modPath string, overlay map[string]map[string]string) (*Module, error) {
	fset := token.NewFileSet()
	ld := &loader{
		mod:  &Module{Path: modPath, Fset: fset, Pkgs: map[string]*Package{}},
		std:  importer.ForCompiler(fset, "source", nil),
		srcs: map[string]map[string]string{},
	}
	for ip, files := range overlay {
		ld.srcs[ip] = files
		if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
			ld.mod.Pkgs[ip] = &Package{Path: ip}
		}
	}
	for ip := range ld.mod.Pkgs {
		if _, err := ld.check(ip); err != nil {
			return nil, err
		}
	}
	return ld.mod, nil
}

// loader type-checks packages recursively, resolving module-local (and
// overlay) imports from its own cache and everything else through the
// stdlib source importer.
type loader struct {
	mod      *Module
	std      types.Importer
	srcs     map[string]map[string]string // import path -> filename -> source
	checking map[string]bool
	// shadow caches type-checked overlay packages that are not part of the
	// module (fake stdlib substitutes).
	shadow map[string]*types.Package
}

func (l *loader) check(ip string) (*types.Package, error) {
	if p, ok := l.mod.Pkgs[ip]; ok && p.Types != nil {
		return p.Types, nil
	}
	if tp, ok := l.shadow[ip]; ok {
		return tp, nil
	}
	files, ok := l.srcs[ip]
	if !ok {
		return nil, fmt.Errorf("lint: no sources for package %s", ip)
	}
	if l.checking == nil {
		l.checking = map[string]bool{}
	}
	if l.checking[ip] {
		return nil, fmt.Errorf("lint: import cycle through %s", ip)
	}
	l.checking[ip] = true
	defer delete(l.checking, ip)

	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var asts []*ast.File
	for _, name := range names {
		if !buildIncluded(files[name]) {
			continue
		}
		f, err := parser.ParseFile(l.mod.Fset, name, files[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var terrs []error
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if _, ok := l.srcs[path]; ok {
				return l.check(path)
			}
			return l.std.Import(path)
		}),
		Error: func(err error) { terrs = append(terrs, err) },
	}
	tp, err := conf.Check(ip, l.mod.Fset, asts, info)
	if tp == nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", ip, err)
	}

	if p, ok := l.mod.Pkgs[ip]; ok {
		p.Files = asts
		p.Types = tp
		p.Info = info
		p.TypeErrors = terrs
	} else {
		if l.shadow == nil {
			l.shadow = map[string]*types.Package{}
		}
		l.shadow[ip] = tp
	}
	return tp, nil
}

// buildIncluded evaluates a file's build constraint (//go:build or +build)
// against the default tag set — no custom tags, host GOOS/GOARCH. Files
// gated behind tags like `invariants` are excluded, exactly as in the build
// the simulator ships.
func buildIncluded(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			continue
		}
		ok := expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" || strings.HasPrefix(tag, "go1")
		})
		if !ok {
			return false
		}
	}
	return true
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
