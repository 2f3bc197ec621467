package lint

import (
	"fmt"
	"go/token"
	"path"
	"slices"
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
// comments and is always active.
var RuleNames = []string{
	"wallclock",
	"maporder",
	"concurrency",
	"floatclock",
	"poolalloc",
	"obsboundary",
	"directive",
}

// CheckRules reports an error listing the valid rule names when any of names
// is not one of RuleNames. Config.Rules is not validated by Run: a
// misspelled rule would silently check nothing, so callers taking rule
// names from users check them here first.
func CheckRules(names []string) error {
	for _, n := range names {
		if !slices.Contains(RuleNames, n) {
			return fmt.Errorf("unknown rule %q; valid rules: %s", n, strings.Join(RuleNames, ", "))
		}
	}
	return nil
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
	// Rules restricts the run to a subset of RuleNames; empty means all.
	Rules []string
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

// ruleEnabled reports whether the named rule runs under this config.
func (c *Config) ruleEnabled(name string) bool {
	if len(c.Rules) == 0 {
		return true
	}
	for _, r := range c.Rules {
		if r == name {
			return true
		}
	}
	return false
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

// Run executes the configured rules over a loaded module and returns the
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

	if cfg.ruleEnabled("wallclock") {
		diags = append(diags, checkWallclock(mod, &cfg)...)
	}
	if cfg.ruleEnabled("maporder") {
		diags = append(diags, checkMapOrder(mod, &cfg)...)
	}
	if cfg.ruleEnabled("concurrency") {
		diags = append(diags, checkConcurrency(mod, &cfg)...)
	}
	if cfg.ruleEnabled("floatclock") {
		diags = append(diags, checkFloatClock(mod, &cfg)...)
	}
	if cfg.ruleEnabled("poolalloc") {
		diags = append(diags, checkPoolAlloc(mod, &cfg)...)
	}
	if cfg.ruleEnabled("obsboundary") {
		diags = append(diags, checkObsBoundary(mod, &cfg)...)
	}

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
