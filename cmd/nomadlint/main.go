// Command nomadlint enforces the simulator's determinism contract (see
// DESIGN.md, "Determinism contract" and "State coverage"). It is built
// entirely on the standard library's go/ast, go/parser, go/token, and
// go/types — running it needs nothing beyond the Go toolchain already
// required to build the simulator.
//
// Usage:
//
//	go run ./cmd/nomadlint ./...
//	go run ./cmd/nomadlint -write-inventory ./...
//	go run ./cmd/nomadlint -rules wallclock,maporder ./...
//	go run ./cmd/nomadlint -rule statecover -json ./...
//
// The package pattern argument is accepted for familiarity but the analyzer
// always loads the whole module containing the working directory: the
// determinism contract is a whole-module property (metric-name uniqueness,
// forwarder resolution, and the state-coverage call graph cross package
// boundaries). Unknown rule names exit 2 with the list of valid ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nomad/internal/lint"
)

// jsonFinding is the machine-readable shape of one diagnostic.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	var (
		writeInventory = flag.Bool("write-inventory", false, "regenerate internal/lint/metric_inventory.txt from the live tree and exit")
		rules          = flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
		rule           = flag.String("rule", "", "run a single rule family (shorthand for -rules <family>)")
		listRules      = flag.Bool("list-rules", false, "print the rule names and exit")
		jsonOut        = flag.Bool("json", false, "emit findings as a JSON array of {file,line,column,rule,message}")
	)
	flag.Parse()

	if *listRules {
		for _, r := range lint.RuleNames {
			fmt.Println(r)
		}
		return
	}
	var sel []string
	if *rules != "" {
		sel = append(sel, strings.Split(*rules, ",")...)
	}
	if *rule != "" {
		sel = append(sel, *rule)
	}
	if err := lint.CheckRules(sel); err != nil {
		fmt.Fprintln(os.Stderr, "nomadlint:", err)
		os.Exit(2)
	}

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

	if *writeInventory {
		lines := lint.InventoryLines(mod)
		out := filepath.Join(root, "internal", "lint", "metric_inventory.txt")
		data := "# Metric registration inventory. Regenerate with:\n" +
			"#   go run ./cmd/nomadlint -write-inventory ./...\n" +
			"# Format: namespace<TAB>name-pattern ('*' = run-time component).\n"
		if len(lines) > 0 {
			data += strings.Join(lines, "\n") + "\n"
		}
		if err := os.WriteFile(out, []byte(data), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "nomadlint:", err)
			os.Exit(2)
		}
		fmt.Printf("nomadlint: wrote %d inventory lines to %s\n", len(lines), out)
		return
	}

	cfg := lint.DefaultConfig()
	cfg.MetricInventory = lint.EmbeddedInventory()
	cfg.Rules = sel
	diags := lint.Run(mod, cfg)
	if *jsonOut {
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "nomadlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
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
