package nomad

import (
	"fmt"

	"nomad/internal/sim"
	"nomad/internal/system"
)

// EngineKind selects the simulation event-queue implementation. Runs are
// byte-identical across engines — the knob exists for differential testing
// and performance comparison, not because results differ.
type EngineKind string

const (
	// EngineWheel is the hierarchical timing wheel (the default): O(1)
	// schedule and dispatch, allocation-free steady state.
	EngineWheel EngineKind = "wheel"
	// EngineHeap is the binary min-heap the wheel replaced, kept as the
	// differential-testing oracle.
	EngineHeap EngineKind = "heap"
)

// Telemetry groups the observability knobs of a simulation. The zero value
// disables all capture, which is the right setting for plain measurement
// runs — every knob here costs some throughput when enabled.
type Telemetry struct {
	// TraceDepth, when positive, records the last TraceDepth machine
	// events (tag misses, PCSHR fills/writebacks, row conflicts) of the
	// ROI. A run with capture enabled exposes it through Result.WriteTrace
	// and summarises it in Snapshot.Trace.
	TraceDepth int
	// SpanDepth, when positive, records per-access latency spans for
	// 1-in-SpanSampleEvery loads per core into a ring of this many spans.
	SpanDepth int
	// SpanSampleEvery is the span sampling period in loads; 0 samples
	// 1 in 64.
	SpanSampleEvery uint64
	// Timeline enables interval time-series telemetry: every
	// TimelineInterval cycles of the measured region (default 100k), a set
	// of registry metrics — per-core IPC, DC hit rate, PCSHR occupancy
	// high-water, HBM/DDR bandwidth by category, row-buffer conflict rate,
	// MSHR occupancy — is snapshotted into windowed columns, exposed via
	// Result.Timeline(), Snapshot.Timeline, and (with WriteTrace) Perfetto
	// counter tracks. The first window starts exactly at ROI cycle 0 and
	// the capture is deterministic: same-seed runs marshal byte-identical
	// timelines.
	Timeline bool
	// TimelineInterval is the window length in cycles; 0 selects 100_000.
	TimelineInterval uint64
	// TimelineMetrics restricts the collected columns to names matching
	// these prefixes (e.g. "core.", "hbm.gbs."); empty collects all.
	TimelineMetrics []string
	// Digests enables interval digest chains: every TimelineInterval
	// cycles of the measured region (default 100k), a chained FNV-1a
	// digest of the full metrics registry is folded into
	// Snapshot.Digests / Result.Digests(). Chains are byte-identical
	// same-seed across engines and fast-forward modes; the first window
	// whose digests differ between two runs localizes their divergence.
	// The capture is orders of magnitude cheaper than Timeline — one hash
	// per 100k cycles.
	Digests bool
	// SelfProfile samples the simulator's own host-side performance —
	// wall-clock simulated-cycles/sec, events/sec, heap-in-use, GC pauses
	// — into Result.Host(). Host readings are inherently non-deterministic
	// and are never part of the metrics snapshot.
	SelfProfile bool
}

// Config parameterises a simulation. The zero value (plus a Scheme) selects
// the paper's evaluation configuration at the scaled capacities documented
// in DESIGN.md; DefaultConfig returns the same configuration with every
// default spelled out.
type Config struct {
	// Scheme under test; defaults to NOMAD.
	Scheme Scheme
	// Cores in the chip multiprocessor; defaults to 8.
	Cores int
	// PCSHRs in the NOMAD back-end; defaults to 16.
	PCSHRs int
	// CopyBuffers in the NOMAD back-end; 0 pairs one buffer per PCSHR.
	// Fewer buffers than PCSHRs selects the area-optimized design.
	CopyBuffers int
	// DistributedBackends partitions the back-end per HBM channel.
	DistributedBackends bool
	// TagMgmtLatency is the NOMAD tag-miss handler critical-section
	// occupancy in cycles; defaults to the paper's conservative 400.
	TagMgmtLatency uint64
	// VerifyLatency adds cycles to every DC access for the PCSHR lookup
	// (0 per the paper's CACTI analysis; set 1 for the sensitivity study).
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
	// self-profiling). The flat fields below are deprecated aliases kept
	// for compatibility; a knob set both ways to conflicting values is a
	// Validate error.
	Telemetry Telemetry

	// Engine selects the event-queue implementation ("" and EngineWheel
	// run the timing wheel, EngineHeap the binary-heap oracle). Results
	// are byte-identical across engines.
	Engine EngineKind

	// NoFastForward disables the engine's activity-driven ticking (on by
	// default), forcing every component to tick on every cycle. Results
	// are byte-identical either way; the switch exists for debugging and
	// for measuring the speedup. With self-profiling enabled,
	// Host().SkippedCycles reports how many cycles the clock jumped over.
	NoFastForward bool

	// Deprecated: use Telemetry.TraceDepth.
	TraceDepth int
	// Deprecated: use Telemetry.SpanDepth.
	SpanDepth int
	// Deprecated: use Telemetry.SpanSampleEvery.
	SpanSampleEvery uint64
	// Deprecated: use Telemetry.Timeline.
	Timeline bool
	// Deprecated: use Telemetry.TimelineInterval.
	TimelineInterval uint64
	// Deprecated: use Telemetry.TimelineMetrics.
	TimelineMetrics []string
	// Deprecated: use Telemetry.SelfProfile.
	SelfProfile bool
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
		Engine:             EngineWheel,
		Telemetry: Telemetry{
			SpanSampleEvery:  64,
			TimelineInterval: 100_000,
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
	switch c.Engine {
	case "", EngineWheel, EngineHeap:
	default:
		return c.validationError("unknown engine %q (want %q or %q)", c.Engine, EngineWheel, EngineHeap)
	}
	if c.Cores < 0 {
		return c.validationError("negative core count %d", c.Cores)
	}
	if c.PCSHRs < 0 {
		return c.validationError("negative PCSHR count %d", c.PCSHRs)
	}
	if c.CopyBuffers < 0 {
		return c.validationError("negative copy buffer count %d", c.CopyBuffers)
	}
	if c.CopyBuffers > 0 && c.PCSHRs > 0 && c.CopyBuffers > c.PCSHRs {
		return c.validationError("copy buffers (%d) exceed PCSHRs (%d); buffers beyond one per PCSHR are unreachable", c.CopyBuffers, c.PCSHRs)
	}
	if c.Telemetry.TraceDepth < 0 || c.TraceDepth < 0 {
		return c.validationError("negative trace depth")
	}
	if c.Telemetry.SpanDepth < 0 || c.SpanDepth < 0 {
		return c.validationError("negative span depth")
	}
	// A knob set through both the Telemetry group and its deprecated flat
	// alias must agree: silently preferring one would hide a caller bug.
	if c.TraceDepth != 0 && c.Telemetry.TraceDepth != 0 && c.TraceDepth != c.Telemetry.TraceDepth {
		return c.validationError("TraceDepth set to %d and Telemetry.TraceDepth to %d; use only Telemetry.TraceDepth", c.TraceDepth, c.Telemetry.TraceDepth)
	}
	if c.SpanDepth != 0 && c.Telemetry.SpanDepth != 0 && c.SpanDepth != c.Telemetry.SpanDepth {
		return c.validationError("SpanDepth set to %d and Telemetry.SpanDepth to %d; use only Telemetry.SpanDepth", c.SpanDepth, c.Telemetry.SpanDepth)
	}
	if c.SpanSampleEvery != 0 && c.Telemetry.SpanSampleEvery != 0 && c.SpanSampleEvery != c.Telemetry.SpanSampleEvery {
		return c.validationError("SpanSampleEvery set to %d and Telemetry.SpanSampleEvery to %d; use only Telemetry.SpanSampleEvery", c.SpanSampleEvery, c.Telemetry.SpanSampleEvery)
	}
	if c.TimelineInterval != 0 && c.Telemetry.TimelineInterval != 0 && c.TimelineInterval != c.Telemetry.TimelineInterval {
		return c.validationError("TimelineInterval set to %d and Telemetry.TimelineInterval to %d; use only Telemetry.TimelineInterval", c.TimelineInterval, c.Telemetry.TimelineInterval)
	}
	return nil
}

func (c Config) effectiveScheme() Scheme {
	if c.Scheme == "" {
		return SchemeNOMAD
	}
	return c.Scheme
}

// effectiveTelemetry merges the Telemetry group with the deprecated flat
// aliases: the grouped field wins when set, the alias fills it otherwise
// (Validate rejects conflicting non-zero settings).
func (c Config) effectiveTelemetry() Telemetry {
	t := c.Telemetry
	if t.TraceDepth == 0 {
		t.TraceDepth = c.TraceDepth
	}
	if t.SpanDepth == 0 {
		t.SpanDepth = c.SpanDepth
	}
	if t.SpanSampleEvery == 0 {
		t.SpanSampleEvery = c.SpanSampleEvery
	}
	t.Timeline = t.Timeline || c.Timeline
	if t.TimelineInterval == 0 {
		t.TimelineInterval = c.TimelineInterval
	}
	if len(t.TimelineMetrics) == 0 {
		t.TimelineMetrics = c.TimelineMetrics
	}
	t.SelfProfile = t.SelfProfile || c.SelfProfile
	return t
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
	tel := c.effectiveTelemetry()
	cfg.TraceDepth = tel.TraceDepth
	cfg.SpanDepth = tel.SpanDepth
	cfg.SpanSampleEvery = tel.SpanSampleEvery
	if cfg.SpanSampleEvery == 0 {
		cfg.SpanSampleEvery = system.DefaultSpanSampleEvery
	}
	cfg.Timeline = tel.Timeline
	cfg.Interval = tel.TimelineInterval
	if cfg.Interval == 0 {
		cfg.Interval = sim.DefaultInterval
	}
	cfg.TimelineMetrics = tel.TimelineMetrics
	cfg.Digests = tel.Digests
	cfg.SelfProfile = tel.SelfProfile
	cfg.FastForward = !c.NoFastForward
	cfg.Engine = sim.Kind(c.Engine)
	if cfg.Engine == "" {
		cfg.Engine = sim.KindWheel
	}
	return cfg
}
