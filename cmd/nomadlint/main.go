// Command nomadlint enforces the simulator's determinism contract (see
// DESIGN.md, "Determinism contract"). It is built entirely on the standard
// library's go/ast, go/parser, go/token, and go/types — running it needs
// nothing beyond the Go toolchain already required to build the simulator.
//
// Usage:
//
//	go run ./cmd/nomadlint ./...
//
// It takes no flags and runs every rule. The package pattern argument is
// accepted for familiarity but the analyzer always loads the whole module
// containing the working directory. Findings print as file:line:col: rule:
// message. Exit status is 0 on a clean tree, 1 when there are findings, and
// 2 on a usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nomad/internal/lint"
)

func main() {
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nomadlint:", err)
		os.Exit(2)
	}
	mod, err := lint.LoadDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nomadlint: load:", err)
		os.Exit(2)
	}

	diags := lint.Run(mod, lint.DefaultConfig())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nomadlint: %d problem(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks upward from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
