// Package nomad is a from-scratch Go reproduction of "NOMAD: Enabling
// Non-blocking OS-managed DRAM Cache via Tag-Data Decoupling" (HPCA 2023).
//
// It bundles a deterministic cycle-level simulation of a chip multiprocessor
// with a heterogeneous memory system — out-of-order cores, SRAM cache
// hierarchy, TLBs, on-package HBM and off-package DDR4 timing models, and an
// OS memory-management substrate — together with five DRAM-cache schemes:
//
//   - Baseline: off-package memory only (lower bound);
//   - TiD: hardware-managed tags-in-DRAM cache (Unison-style);
//   - TDC: blocking OS-managed tagless DRAM cache;
//   - NOMAD: the paper's non-blocking OS-managed cache (front-end OS
//     routines + PCSHR back-end hardware);
//   - Ideal: zero-penalty OS-managed cache (upper bound).
//
// Quick start:
//
//	w, _ := nomad.WorkloadByAbbr("cact")
//	res, err := nomad.Run(nomad.Config{Scheme: nomad.SchemeNOMAD}, w)
//	if err != nil { ... }
//	fmt.Println(res.IPC, res.OSStallRatio)
//
// The full evaluation (every table and figure of the paper) is reachable
// through Experiments / RunExperiment and the cmd/experiments CLI.
package nomad

import (
	"context"
	"fmt"

	"nomad/internal/obs"
	"nomad/internal/system"
	"nomad/internal/workload"
)

// Scheme selects the memory-system design under test.
type Scheme string

// The five schemes of the paper's evaluation (§IV-A).
const (
	SchemeBaseline Scheme = "Baseline"
	SchemeTiD      Scheme = "TiD"
	SchemeTDC      Scheme = "TDC"
	SchemeNOMAD    Scheme = "NOMAD"
	SchemeIdeal    Scheme = "Ideal"
)

// Schemes returns all schemes in the paper's presentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeBaseline, SchemeTiD, SchemeTDC, SchemeNOMAD, SchemeIdeal}
}

// Workload is one benchmark surrogate (Table I) or a custom stream
// definition.
type Workload struct {
	spec workload.Spec
}

// Name returns the full benchmark name (e.g. "cactusADM").
func (w Workload) Name() string { return w.spec.Name }

// Abbr returns the Table I abbreviation (e.g. "cact").
func (w Workload) Abbr() string { return w.spec.Abbr }

// Class returns the RMHB class: Excess, Tight, Loose, or Few.
func (w Workload) Class() string { return w.spec.Class }

// Suite returns the source suite (SPEC2006 or GAPBS).
func (w Workload) Suite() string { return w.spec.Suite }

// FootprintBytes returns the per-core streamed footprint.
func (w Workload) FootprintBytes() uint64 { return w.spec.FootprintBytes() }

// Workloads returns the fifteen Table I benchmark surrogates.
func Workloads() []Workload {
	specs := workload.Specs()
	out := make([]Workload, len(specs))
	for i, s := range specs {
		out[i] = Workload{spec: s}
	}
	return out
}

// WorkloadByAbbr looks a surrogate up by its Table I abbreviation.
func WorkloadByAbbr(abbr string) (Workload, error) {
	s, ok := workload.ByAbbr(abbr)
	if !ok {
		return Workload{}, fmt.Errorf("nomad: unknown workload %q", abbr)
	}
	return Workload{spec: s}, nil
}

// WorkloadClasses returns the class names in paper order.
func WorkloadClasses() []string { return workload.Classes() }

// WorkloadsByClass returns the surrogates of one class.
func WorkloadsByClass(class string) []Workload {
	specs := workload.ByClass(class)
	out := make([]Workload, len(specs))
	for i, s := range specs {
		out[i] = Workload{spec: s}
	}
	return out
}

// CustomSpec defines a synthetic workload through the generator's knobs.
// See the field documentation in DESIGN.md; all rates are per core.
type CustomSpec struct {
	Name string
	// FootprintPages is the streamed region in 4 KB pages.
	FootprintPages uint64
	// RunBlocks is the number of sequential 64 B blocks touched per page
	// visit (1..64); it sets spatial locality.
	RunBlocks int
	// SeqPageFrac is the probability the next page follows sequentially.
	SeqPageFrac float64
	// GapMean is the mean non-memory instruction count between memory
	// operations.
	GapMean int
	// WriteFrac is the store fraction.
	WriteFrac float64
	// HotPages/HotFrac define an LLC-resident reuse set.
	HotPages uint64
	HotFrac  float64
	// WarmPages/WarmFrac define a DC-resident (LLC-missing) reuse set.
	WarmPages uint64
	WarmFrac  float64
	// BurstPeriodOps/BurstDuty/QuietGapMult introduce phase behaviour.
	BurstPeriodOps uint64
	BurstDuty      float64
	QuietGapMult   int
	// MLP caps effective memory-level parallelism below the hardware
	// limit (dependence chains); 0 uses the core's limit.
	MLP int
}

// NewWorkload builds a custom workload from a CustomSpec.
func NewWorkload(cs CustomSpec) Workload {
	name := cs.Name
	if name == "" {
		name = "custom"
	}
	return Workload{spec: workload.Spec{
		Name: name, Abbr: name, Class: "Custom", Suite: "custom",
		FootprintPages: cs.FootprintPages,
		RunBlocks:      cs.RunBlocks,
		SeqPageFrac:    cs.SeqPageFrac,
		GapMean:        cs.GapMean,
		WriteFrac:      cs.WriteFrac,
		HotPages:       cs.HotPages,
		HotFrac:        cs.HotFrac,
		WarmPages:      cs.WarmPages,
		WarmFrac:       cs.WarmFrac,
		BurstPeriodOps: cs.BurstPeriodOps,
		BurstDuty:      cs.BurstDuty,
		QuietGapMult:   cs.QuietGapMult,
		MLP:            cs.MLP,
	}}
}

// Run simulates one (configuration, workload) pair: warmup, then a measured
// region of interest. It is deterministic for fixed inputs and safe to call
// from multiple goroutines concurrently (each call builds its own machine).
// It is RunContext with a background context.
func Run(cfg Config, w Workload) (*Result, error) {
	return RunContext(context.Background(), cfg, w)
}

// RunContext is Run with cancellation. The simulation checks ctx every 8192
// simulated cycles (microseconds of wall time), so a cancelled run returns
// promptly without a partial Result. Errors are typed:
// every failure returns a *Error wrapping the cause, so
// errors.Is(err, context.Canceled) reports a cancelled run.
func RunContext(ctx context.Context, cfg Config, w Workload) (*Result, error) {
	fail := func(op string, err error) error {
		return &Error{Op: op, Scheme: cfg.effectiveScheme(), Workload: w.Abbr(), Err: err}
	}
	if verr := cfg.Validate(); verr != nil {
		verr.Workload = w.Abbr()
		return nil, verr
	}
	icfg := cfg.toInternal()
	m, err := system.New(icfg, w.spec)
	if err != nil {
		return nil, fail("configure", err)
	}
	r, err := m.RunContext(ctx)
	if err != nil {
		return nil, fail("run", err)
	}
	out := fromInternal(r)
	out.manifest = fromObsManifest(obs.NewManifest(icfg, w.spec))
	return out, nil
}

// ManifestFor computes the content-addressed manifest a Run of (cfg, w)
// would carry, without running anything: the address is the SHA-256 of the
// resolved configuration, the workload definition, and the module build
// stamp. Because same-seed runs are byte-identical, the address fully
// identifies the result — the key for a content-addressed result cache.
func ManifestFor(cfg Config, w Workload) (*Manifest, error) {
	if verr := cfg.Validate(); verr != nil {
		verr.Workload = w.Abbr()
		return nil, verr
	}
	return fromObsManifest(obs.NewManifest(cfg.toInternal(), w.spec)), nil
}
