package lint

import (
	"fmt"
	"go/token"
	"path"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// RuleNames lists every rule the analyzer implements, in report order.
// "directive" is the meta-rule covering malformed //nomadlint:ignore
// comments.
var RuleNames = []string{
	"wallclock",
	"floatclock",
	"obsboundary",
	"directive",
}

// Config scopes the determinism contract.
type Config struct {
	// ModelPackages are import-path suffixes (relative to the module path)
	// of packages holding simulation state, where the full contract
	// applies. A package matches when its path equals modPath+"/"+entry.
	ModelPackages []string
	// AllowFiles exempts individual files (slash-separated path suffixes,
	// e.g. "internal/metrics/hostprof.go") from the wallclock rule: these
	// knowingly read host state and are documented as non-deterministic.
	AllowFiles []string
}

// DefaultConfig returns the contract for this repository: every package
// that holds simulation state is a model package; the host-profiling file
// is the single wallclock exemption.
func DefaultConfig() Config {
	return Config{
		ModelPackages: []string{
			"internal/sim",
			"internal/mem",
			"internal/dram",
			"internal/cache",
			"internal/core",
			"internal/cpu",
			"internal/osmem",
			"internal/schemes",
			"internal/tlb",
			"internal/replacement",
			"internal/workload",
			"internal/system",
			"internal/metrics",
		},
		AllowFiles: []string{"internal/metrics/hostprof.go"},
	}
}

// isModel reports whether the package at import path ip is in contract
// scope.
func (c *Config) isModel(modPath, ip string) bool {
	for _, m := range c.ModelPackages {
		if ip == modPath+"/"+m || ip == m {
			return true
		}
	}
	return false
}

// fileAllowed reports whether filename is exempt from wallclock.
func (c *Config) fileAllowed(filename string) bool {
	f := path.Clean(strings.ReplaceAll(filename, "\\", "/"))
	for _, a := range c.AllowFiles {
		if strings.HasSuffix(f, "/"+a) || f == a {
			return true
		}
	}
	return false
}

// Run executes every rule over a loaded module and returns the
// surviving diagnostics sorted by position. Type errors are reported first:
// a module that does not compile cannot be certified.
func Run(mod *Module, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, p := range mod.Sorted() {
		for _, err := range p.TypeErrors {
			diags = append(diags, Diagnostic{
				Rule:    "typecheck",
				Message: err.Error(),
			})
		}
	}

	ign := collectIgnores(mod)
	diags = append(diags, ign.malformed...)

	diags = append(diags, checkWallclock(mod, &cfg)...)
	diags = append(diags, checkFloatClock(mod, &cfg)...)
	diags = append(diags, checkObsBoundary(mod, &cfg)...)

	kept := diags[:0]
	for _, d := range diags {
		if d.Rule != "directive" && ign.suppressed(d) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Rule < kept[j].Rule
	})
	return kept
}
