package nomad

import (
	"fmt"

	"nomad/internal/core"
	"nomad/internal/osmem"
	"nomad/internal/system"
)

// Telemetry groups the observability knobs of a simulation: event and span
// traces, the interval timeline, digest chains and self-profiling. The zero
// value disables all capture. A run with trace capture exposes it through
// Result.WriteTrace, the timeline through Result.Timeline, the digest chain
// through Result.Digests and the host profile through Result.Host.
type Telemetry = system.Telemetry

// Config parameterises a simulation. The zero value (plus a Scheme) selects
// the paper's evaluation configuration at the scaled capacities documented
// in DESIGN.md; DefaultConfig returns the same configuration with every
// default spelled out.
type Config struct {
	// Scheme under test; defaults to NOMAD.
	Scheme Scheme
	// Cores in the chip multiprocessor, at most 64 (the OS keeps one TLB
	// directory bit per core); defaults to 8.
	Cores int
	// PCSHRs in the NOMAD back-end, at most 1024; defaults to 16.
	PCSHRs int
	// CopyBuffers in the NOMAD back-end, at most one per PCSHR; 0 pairs one
	// buffer per PCSHR. Fewer buffers than PCSHRs selects the
	// area-optimized design.
	CopyBuffers int
	// DistributedBackends partitions the back-end per HBM channel.
	DistributedBackends bool
	// TagMgmtLatency is the NOMAD tag-miss handler critical-section
	// occupancy in cycles; defaults to the paper's conservative 400. It
	// may not exceed a run's 400M-cycle limit.
	TagMgmtLatency uint64
	// VerifyLatency adds cycles to every DC access for the PCSHR lookup
	// (0 per the paper's CACTI analysis; set 1 for the sensitivity study).
	// It may not exceed a run's 400M-cycle limit.
	VerifyLatency uint64
	// CacheTouchThreshold enables selective caching for OS-managed
	// schemes: a page is cached only on its Nth uncached page-table walk.
	// 0 or 1 caches on first touch (the paper's default).
	CacheTouchThreshold uint64
	// WarmupInstructions / ROIInstructions are per-core retirement
	// targets; zero selects the defaults.
	WarmupInstructions uint64
	ROIInstructions    uint64
	// Seed perturbs workload address streams deterministically.
	Seed uint64

	// Telemetry groups the observability knobs (traces, spans, timeline,
	// digests, self-profiling).
	Telemetry Telemetry
}

// DefaultConfig returns the paper's evaluation configuration with every
// default spelled out. It is equivalent to the zero Config (which resolves
// the same defaults internally) but self-documenting: callers can tweak one
// field of a fully-populated struct instead of memorising which zero values
// mean what.
func DefaultConfig() Config {
	return Config{
		Scheme:             SchemeNOMAD,
		Cores:              8,
		PCSHRs:             16,
		TagMgmtLatency:     400,
		WarmupInstructions: 700_000,
		ROIInstructions:    1_200_000,
		Seed:               1,
		Telemetry: Telemetry{
			SpanSampleEvery: 64,
			Interval:        100_000,
		},
	}
}

// validationError wraps a field-level complaint in the package's typed Error
// so callers can handle configuration and run failures uniformly.
func (c Config) validationError(format string, args ...interface{}) *Error {
	return &Error{Op: "validate", Scheme: c.effectiveScheme(), Err: fmt.Errorf(format, args...)}
}

// Validate reports whether the configuration is runnable, returning a typed
// *Error (Op "validate") describing the first problem found, or nil. Run and
// RunContext validate implicitly; calling Validate first gives tools a way
// to reject bad configurations before committing to a simulation.
func (c Config) Validate() *Error {
	switch c.Scheme {
	case "", SchemeBaseline, SchemeTiD, SchemeTDC, SchemeNOMAD, SchemeIdeal:
	default:
		return c.validationError("unknown scheme %q", c.Scheme)
	}
	if c.Cores < 0 {
		return c.validationError("negative core count %d", c.Cores)
	}
	if c.Cores > osmem.MaxCores {
		return c.validationError("%d cores exceed the limit of %d", c.Cores, osmem.MaxCores)
	}
	if c.PCSHRs < 0 {
		return c.validationError("negative PCSHR count %d", c.PCSHRs)
	}
	if c.PCSHRs > core.MaxPCSHRs {
		return c.validationError("%d PCSHRs exceed the limit of %d", c.PCSHRs, core.MaxPCSHRs)
	}
	if c.CopyBuffers < 0 {
		return c.validationError("negative copy buffer count %d", c.CopyBuffers)
	}
	icfg := c.toInternal()
	if pcshrs := icfg.Backend.PCSHRs; c.CopyBuffers > pcshrs {
		return c.validationError("copy buffers (%d) exceed PCSHRs (%d); buffers beyond one per PCSHR are unreachable", c.CopyBuffers, pcshrs)
	}
	// A longer latency could not complete within the run, and the event
	// scheduled that far ahead would wrap the clock.
	if c.TagMgmtLatency > icfg.MaxCycles {
		return c.validationError("tag management latency of %d cycles exceeds the run limit of %d", c.TagMgmtLatency, icfg.MaxCycles)
	}
	if c.VerifyLatency > icfg.MaxCycles {
		return c.validationError("verify latency of %d cycles exceeds the run limit of %d", c.VerifyLatency, icfg.MaxCycles)
	}
	if err := c.Telemetry.Validate(); err != nil {
		return c.validationError("%w", err)
	}
	return nil
}

func (c Config) effectiveScheme() Scheme {
	if c.Scheme == "" {
		return SchemeNOMAD
	}
	return c.Scheme
}

func (c Config) toInternal() system.Config {
	cfg := system.DefaultConfig()
	if c.Scheme != "" {
		cfg.Scheme = system.SchemeName(c.Scheme)
	}
	if c.Cores > 0 {
		cfg.Cores = c.Cores
	}
	if c.PCSHRs > 0 {
		cfg.Backend.PCSHRs = c.PCSHRs
	}
	if c.CopyBuffers > 0 {
		cfg.Backend.CopyBuffers = c.CopyBuffers
	}
	cfg.Backend.Distributed = c.DistributedBackends
	if c.TagMgmtLatency > 0 {
		cfg.Frontend.TagMgmtLatency = c.TagMgmtLatency
	}
	cfg.Backend.VerifyLatency = c.VerifyLatency
	cfg.Frontend.CacheTouchThreshold = c.CacheTouchThreshold
	if c.WarmupInstructions > 0 {
		cfg.WarmupInstructions = c.WarmupInstructions
	}
	if c.ROIInstructions > 0 {
		cfg.ROIInstructions = c.ROIInstructions
	}
	if c.Seed > 0 {
		cfg.Seed = c.Seed
	}
	cfg.Telemetry = c.Telemetry.Resolved()
	return cfg
}
