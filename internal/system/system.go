// Package system assembles the full machine — cores, TLBs, SRAM hierarchy,
// DRAM devices, OS memory manager, and the memory scheme under test — and
// runs warmup + region-of-interest simulations, producing a Result with the
// measurements every paper figure needs.
package system

import (
	"context"
	"fmt"
	"strings"

	"nomad/internal/cache"
	"nomad/internal/core"
	"nomad/internal/cpu"
	"nomad/internal/dram"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/osmem"
	"nomad/internal/schemes"
	"nomad/internal/sim"
	"nomad/internal/tlb"
	"nomad/internal/workload"
)

// ClockHz is the CPU clock; all cycle counts convert to wall time with it.
const ClockHz = 3.2e9

// cancelCheckCycles is the granularity, in simulated cycles, at which
// RunContext checks for cancellation and samples the host profiler.
const cancelCheckCycles uint64 = 8192

// SchemeName selects the memory scheme under test.
type SchemeName string

const (
	SchemeBaseline SchemeName = "Baseline"
	SchemeTiD      SchemeName = "TiD"
	SchemeTDC      SchemeName = "TDC"
	SchemeNOMAD    SchemeName = "NOMAD"
	SchemeIdeal    SchemeName = "Ideal"
)

// AllSchemes lists the evaluation's schemes in Fig. 9 order.
func AllSchemes() []SchemeName {
	return []SchemeName{SchemeBaseline, SchemeTiD, SchemeTDC, SchemeNOMAD, SchemeIdeal}
}

// ParseScheme returns the scheme a command line names, or an error that
// lists the valid names.
func ParseScheme(name string) (SchemeName, error) {
	all := AllSchemes()
	names := make([]string, len(all))
	for i, s := range all {
		if SchemeName(name) == s {
			return s, nil
		}
		names[i] = string(s)
	}
	return "", fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(names, ", "))
}

// Config describes one simulated machine.
type Config struct {
	Cores int
	Core  cpu.Config
	L1    cache.Config
	L2    cache.Config
	LLC   cache.Config
	TLB   tlb.Config
	HBM   dram.Config
	DDR   dram.Config
	// CacheFrames is the DRAM cache capacity in 4 KB frames.
	CacheFrames uint64
	Scheme      SchemeName
	Frontend    core.FrontendConfig
	Backend     core.BackendConfig

	// WarmupInstructions/ROIInstructions are per-core retirement targets.
	WarmupInstructions uint64
	ROIInstructions    uint64
	// MaxCycles bounds a run (safety for pathological configurations).
	MaxCycles uint64
	Seed      uint64

	// Telemetry holds the observability knobs (traces, spans, timeline,
	// digests, self-profiling); New validates it and fills in its
	// defaults.
	Telemetry
	// ROICycleLimit, when positive, ends the measured region successfully
	// after exactly this many ROI cycles even if the retirement target has
	// not been reached. Because the engine lands on the limit cycle
	// exactly (fast-forward never overshoots a bound), the partial run's
	// snapshot is a deterministic prefix of the full run's — the replay
	// knob diag.Bisect uses to re-run just up to a divergent window.
	ROICycleLimit uint64
}

// DefaultConfig returns the Table II-derived evaluation configuration at the
// scaled capacities documented in DESIGN.md: 8 cores, 32 KB L1 / 256 KB L2 /
// 4 MB shared LLC, 128 MB DRAM cache.
func DefaultConfig() Config {
	return Config{
		Cores:              8,
		Core:               cpu.DefaultConfig(),
		L1:                 cache.Config{Name: "L1", Sets: 64, Ways: 8, Latency: 4, MSHRs: 16},
		L2:                 cache.Config{Name: "L2", Sets: 512, Ways: 8, Latency: 12, MSHRs: 32},
		LLC:                cache.Config{Name: "LLC", Sets: 4096, Ways: 16, Latency: 38, MSHRs: 64},
		TLB:                tlb.DefaultConfig(),
		HBM:                dram.HBMConfig(),
		DDR:                dram.DDRConfig(),
		CacheFrames:        32768, // 128 MB
		Scheme:             SchemeNOMAD,
		Frontend:           core.DefaultFrontendConfig(),
		Backend:            core.DefaultBackendConfig(),
		WarmupInstructions: 700_000,
		ROIInstructions:    1_200_000,
		MaxCycles:          400_000_000,
		Seed:               1,
	}
}

// Machine is one assembled system.
type Machine struct {
	cfg      Config
	workload string
	eng      *sim.Engine
	hbm      *dram.Device
	ddr      *dram.Device
	mm       *osmem.Manager
	scheme   schemes.Scheme
	cores    []*cpu.Core
	tlbs     []*tlb.TLB
	l1s      []*cache.Cache
	l2s      []*cache.Cache
	llc      *cache.Cache
	reg      *metrics.Registry

	// Interval-hook consumers: an optional host-facing progress callback
	// and the host profiler (both nil unless enabled). phase/phaseBase/
	// phaseTarget describe the retirement phase for progress reports.
	progressFn  func(Progress)
	prof        *metrics.HostProfiler
	phase       string
	phaseBase   []uint64
	phaseTarget uint64

	// memOps is the freelist of pooled translate-then-access operations
	// (port.Load / port.Store): the per-access TLB callback is a prebuilt
	// closure on a recycled op, so the load/store hot path allocates
	// nothing.
	memOps []*memOp
}

// memOp is one pooled in-flight load or store, carried across the TLB
// translation by its prebuilt fn callback.
type memOp struct {
	start  uint64
	vaddr  uint64
	probe  *mem.Probe
	done   func()
	coreID int
	write  bool
	fn     func(tlb.Entry)
}

// getMemOp takes a memOp from the freelist, building the instance (and its
// permanent translate callback) only on first use.
func (m *Machine) getMemOp() *memOp {
	if n := len(m.memOps); n > 0 {
		op := m.memOps[n-1]
		m.memOps = m.memOps[:n-1]
		return op
	}
	op := &memOp{}
	op.fn = func(e tlb.Entry) { m.runMemOp(op, e) }
	return op
}

// runMemOp continues a load/store after translation. The op is recycled
// first (the L1 access may re-enter Load/Store synchronously), then the
// request proceeds into the SRAM hierarchy.
func (m *Machine) runMemOp(op *memOp, e tlb.Entry) {
	start, vaddr, probe, done := op.start, op.vaddr, op.probe, op.done
	coreID, write := op.coreID, op.write
	op.probe, op.done = nil, nil
	m.memOps = append(m.memOps, op)

	addr := mem.TagSpace(mem.AddrInFrame(e.Frame, mem.PageOffset(vaddr)), e.Space)
	if write {
		m.scheme.NoteStore(coreID, e)
		req := mem.Request{Addr: addr, Write: true, Core: coreID, Kind: mem.KindDemand}
		m.l1s[coreID].Access(&req, nil)
		return
	}
	if probe != nil {
		probe.SetCause(mem.StallSRAM)
		if probe.SpanID != 0 {
			m.reg.Spans().Emit(metrics.Span{ID: probe.SpanID, Kind: metrics.SpanTLB,
				Core: probe.Core, Start: start, End: m.eng.Now()})
		}
	}
	req := mem.Request{Addr: addr, Core: coreID, Kind: mem.KindDemand, Probe: probe}
	m.l1s[coreID].Access(&req, done)
}

// threadAdapter lets the OS front-end suspend cores without the core
// package importing cpu.
type threadAdapter struct{ c *cpu.Core }

func (t threadAdapter) Block()   { t.c.Block() }
func (t threadAdapter) Unblock() { t.c.Unblock() }

// flusher invalidates a DC frame's lines throughout the SRAM hierarchy
// (L1s and L2s first, then the LLC, so dirty data funnels downward).
type flusher struct{ m *Machine }

func (f flusher) FlushFrame(cfn uint64) {
	addr := mem.TagSpace(mem.FrameAddr(cfn), mem.SpaceCache)
	for _, c := range f.m.l1s {
		c.FlushPage(addr)
	}
	for _, c := range f.m.l2s {
		c.FlushPage(addr)
	}
	f.m.llc.FlushPage(addr)
}

// shootdowner performs real TLB shootdowns for the reclaim-starvation
// fallback (tiny caches where TLB reach rivals DC capacity).
type shootdowner struct{ m *Machine }

func (s shootdowner) Shootdown(coreID int, vpn uint64) {
	s.m.tlbs[coreID].Invalidate(vpn)
}

// port is one core's path into the memory system: translate, then L1.
type port struct {
	m      *Machine
	coreID int
}

func (p port) Load(coreID int, vaddr uint64, probe *mem.Probe, done func()) {
	if probe != nil {
		probe.SetCause(mem.StallTLB)
	}
	op := p.m.getMemOp()
	op.start = p.m.eng.Now()
	op.vaddr = vaddr
	op.probe = probe
	op.done = done
	op.coreID = p.coreID
	op.write = false
	p.m.tlbs[p.coreID].Translate(vaddr, op.fn)
}

func (p port) Store(coreID int, vaddr uint64) {
	op := p.m.getMemOp()
	op.vaddr = vaddr
	op.coreID = p.coreID
	op.write = true
	p.m.tlbs[p.coreID].Translate(vaddr, op.fn)
}

// New builds a machine running spec on every core (rate mode, as in the
// paper: one single-threaded program per CPU).
func New(cfg Config, spec workload.Spec) (*Machine, error) {
	return newMachine(cfg, spec)
}

// newMachine is New with engine options: the differential tests pass
// sim.WithScheduler to run the same machine on the binary-heap oracle.
func newMachine(cfg Config, spec workload.Spec, opts ...sim.Option) (*Machine, error) {
	if cfg.Cores <= 0 || cfg.Cores > osmem.MaxCores {
		return nil, fmt.Errorf("system: core count must be in 1..%d, got %d", osmem.MaxCores, cfg.Cores)
	}
	if cfg.Backend.PCSHRs > core.MaxPCSHRs {
		return nil, fmt.Errorf("system: %d PCSHRs exceed the limit of %d", cfg.Backend.PCSHRs, core.MaxPCSHRs)
	}
	if err := cfg.Telemetry.Validate(); err != nil {
		return nil, fmt.Errorf("system: %w", err)
	}
	cfg.Telemetry = cfg.Telemetry.Resolved()
	m := &Machine{cfg: cfg, workload: spec.Abbr, eng: sim.New(opts...)}
	m.hbm = dram.New(m.eng, cfg.HBM)
	m.ddr = dram.New(m.eng, cfg.DDR)
	m.mm = osmem.New(cfg.Cores, cfg.CacheFrames)

	// Cores are built first (the OS front-end needs thread handles), but
	// their memory ports are wired afterwards.
	m.cores = make([]*cpu.Core, cfg.Cores)
	threads := make([]core.Thread, cfg.Cores)
	coreCfg := cfg.Core
	if spec.MLP > 0 && spec.MLP < coreCfg.MaxLoads {
		// Dependence-limited workloads cannot fill the hardware's
		// outstanding-load capacity.
		coreCfg.MaxLoads = spec.MLP
	}
	for i := 0; i < cfg.Cores; i++ {
		stream := workload.NewStream(spec, cfg.Seed+uint64(i)*7919)
		m.cores[i] = cpu.New(i, coreCfg, port{m: m, coreID: i}, stream)
		threads[i] = threadAdapter{m.cores[i]}
	}

	walk := cfg.Frontend.WalkLatency
	if walk == 0 {
		walk = core.DefaultFrontendConfig().WalkLatency
	}
	switch cfg.Scheme {
	case SchemeBaseline:
		m.scheme = schemes.NewBaseline(m.eng, m.ddr, m.mm, walk)
	case SchemeTiD:
		m.scheme = schemes.NewTiD(m.eng, m.hbm, m.ddr, m.mm, walk,
			schemes.TiDConfig{CapacityBytes: cfg.CacheFrames * mem.PageSize})
	case SchemeTDC:
		m.scheme = schemes.NewTDC(m.eng, m.hbm, m.ddr, m.mm, cfg.Frontend, threads, flusher{m})
	case SchemeNOMAD:
		m.scheme = schemes.NewNOMAD(m.eng, m.hbm, m.ddr, m.mm, cfg.Frontend, cfg.Backend, threads, flusher{m})
	case SchemeIdeal:
		m.scheme = schemes.NewIdeal(m.eng, m.hbm, m.ddr, m.mm, walk)
	default:
		return nil, fmt.Errorf("system: unknown scheme %q", cfg.Scheme)
	}

	m.llc = cache.New(m.eng, cfg.LLC, m.scheme)
	m.l1s = make([]*cache.Cache, cfg.Cores)
	m.l2s = make([]*cache.Cache, cfg.Cores)
	m.tlbs = make([]*tlb.TLB, cfg.Cores)
	dir := m.scheme.Directory()
	for i := 0; i < cfg.Cores; i++ {
		m.l2s[i] = cache.New(m.eng, cfg.L2, m.llc)
		m.l1s[i] = cache.New(m.eng, cfg.L1, m.l2s[i])
		m.tlbs[i] = tlb.New(m.eng, i, cfg.TLB, m.scheme.Walker(), dir)
		m.eng.AddTicker(m.cores[i])
	}
	switch sc := m.scheme.(type) {
	case *schemes.NOMAD:
		sc.Frontend().SetShootdowner(shootdowner{m})
	case *schemes.TDC:
		sc.Frontend().SetShootdowner(shootdowner{m})
	case *schemes.Ideal:
		sc.SetShootdowner(shootdowner{m})
	}
	m.registerMetrics()
	return m, nil
}

// Engine exposes the simulation clock (tests).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Metrics exposes the machine's stats registry.
func (m *Machine) Metrics() *metrics.Registry { return m.reg }

// Scheme exposes the scheme under test (tests, stats).
func (m *Machine) Scheme() schemes.Scheme { return m.scheme }

// Cores exposes the core models (tests).
func (m *Machine) Cores() []*cpu.Core { return m.cores }

// Progress is one interval tick's phase report, delivered to the callback
// registered with SetProgress.
type Progress struct {
	// Phase is "warmup" or "roi".
	Phase string
	// Cycle is the current simulated cycle.
	Cycle uint64
	// Done is the slowest core's retired instructions within the phase;
	// Target is the phase's per-core retirement target. Done/Target is the
	// phase's completion fraction (the phase ends when the SLOWEST core
	// reaches the target).
	Done, Target uint64
}

// Fraction returns the phase completion fraction in [0, 1].
func (p Progress) Fraction() float64 {
	if p.Target == 0 {
		return 1
	}
	f := float64(p.Done) / float64(p.Target)
	if f > 1 {
		f = 1
	}
	return f
}

// SetProgress registers fn to receive a Progress report at every interval
// tick (Config.Interval cycles, default sim.DefaultInterval). The callback
// observes simulation state but must not mutate it; it is intended for
// host-side progress/ETA printing and does not perturb determinism.
func (m *Machine) SetProgress(fn func(Progress)) { m.progressFn = fn }

// intervalTick is the engine interval hook: progress first (host-facing),
// then the timeline sample (no-op until BeginTimeline).
func (m *Machine) intervalTick(now uint64) {
	if m.progressFn != nil {
		var done uint64
		for i, c := range m.cores {
			d := c.Stats().Instructions - m.phaseBase[i]
			if i == 0 || d < done {
				done = d
			}
		}
		m.progressFn(Progress{Phase: m.phase, Cycle: now, Done: done, Target: m.phaseTarget})
	}
	m.reg.SampleInterval(now)
}

// setPhase records the retirement phase the interval hook reports against.
func (m *Machine) setPhase(phase string, base []uint64, target uint64) {
	m.phase = phase
	m.phaseBase = base
	m.phaseTarget = target
}

// finishPhase emits one final Progress report the moment a retirement phase
// completes. Phases almost never end exactly on an interval boundary, so
// without this the callback's last observation is the last throttled tick's
// fraction; consumers (harness.ProgressPrinter's 100% line, the obs
// tracker's done state) need the fraction-1 report.
func (m *Machine) finishPhase() {
	if m.progressFn != nil {
		m.progressFn(Progress{Phase: m.phase, Cycle: m.eng.Now(), Done: m.phaseTarget, Target: m.phaseTarget})
	}
}

// runUntilRetired advances until every core has retired at least target
// additional instructions (relative to the given baselines), the absolute
// engine cycle stopAt is reached (0 = no stop cycle; reaching it counts as
// success), or maxCycles pass. It runs in chunks of cancelCheckCycles,
// checking ctx between chunks, so cancellation is honoured within one
// chunk of simulated time. Chunks are clamped to stopAt, and the engine
// never oversteps a run bound (fast-forward jumps are bounded the same
// way), so a stopAt run lands on that cycle exactly — the partial run is a
// cycle-accurate prefix of the full one.
// It returns false on timeout and a non-nil error only on cancellation.
func (m *Machine) runUntilRetired(ctx context.Context, base []uint64, target uint64, maxCycles, stopAt uint64) (bool, error) {
	// Retired counts only grow, so cores before the cursor stay done and
	// pred costs amortized O(1) per executed cycle.
	next := 0
	pred := func() bool {
		for ; next < len(m.cores); next++ {
			if m.cores[next].Stats().Instructions-base[next] < target {
				return false
			}
		}
		return true
	}
	var elapsed uint64
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		m.prof.MaybeSample(m.eng.Now(), m.eng.Executed())
		step := cancelCheckCycles
		if rem := maxCycles - elapsed; step > rem {
			step = rem
		}
		if stopAt > 0 {
			now := m.eng.Now()
			if now >= stopAt {
				return true, nil
			}
			if rem := stopAt - now; step > rem {
				step = rem
			}
		}
		if m.eng.RunUntil(pred, step) {
			return true, nil
		}
		elapsed += step
		if elapsed >= maxCycles {
			return false, nil
		}
	}
}

// Run performs warmup then the measured region of interest and returns the
// Result. An error is returned only on timeout (MaxCycles exceeded).
func (m *Machine) Run() (*Result, error) {
	return m.RunContext(context.Background())
}

// RunContext is Run with cancellation: ctx is checked every
// cancelCheckCycles (8192) simulated cycles, so a cancelled run stops within
// one such chunk and returns ctx.Err(). A run cancelled inside the measured
// region returns a partial Result alongside the error: the engine stops at a
// deterministic chunk boundary, so the partial snapshot is a well-formed
// prefix of the full run (harness.Execute keeps it for partial output).
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	cfg := m.cfg
	if cfg.SelfProfile && m.prof == nil {
		m.prof = metrics.NewHostProfiler(0)
	}
	base := make([]uint64, len(m.cores))
	if cfg.WarmupInstructions > 0 {
		m.setPhase("warmup", base, cfg.WarmupInstructions)
		ok, err := m.runUntilRetired(ctx, base, cfg.WarmupInstructions, cfg.MaxCycles, 0)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("system: warmup exceeded %d cycles (scheme %s)", cfg.MaxCycles, cfg.Scheme)
		}
		m.finishPhase()
	}
	m.reg.MarkROI(m.eng.Now())
	// Re-anchor the interval hook at the ROI boundary so the first timeline
	// window starts at ROI cycle 0 and every boundary is an exact multiple
	// of the interval from MarkROI.
	m.eng.SetInterval(cfg.Interval, m.intervalTick)
	if cfg.Timeline {
		m.reg.BeginTimeline(m.eng.Now(), cfg.Interval)
	}
	if cfg.Digests {
		m.reg.BeginDigests(m.eng.Now(), cfg.Interval)
	}
	for i, c := range m.cores {
		base[i] = c.Stats().Instructions
	}
	m.setPhase("roi", base, cfg.ROIInstructions)
	var stopAt uint64
	if cfg.ROICycleLimit > 0 {
		stopAt = m.eng.Now() + cfg.ROICycleLimit
	}
	ok, err := m.runUntilRetired(ctx, base, cfg.ROIInstructions, cfg.MaxCycles, stopAt)
	if err != nil {
		// Cancelled mid-ROI: the registry is consistent at the boundary the
		// engine stopped on, so surface what was measured so far.
		m.reg.FinishTimeline(m.eng.Now())
		return m.result(m.reg.Snapshot(m.eng.Now())), err
	}
	if !ok {
		return nil, fmt.Errorf("system: ROI exceeded %d cycles (scheme %s)", cfg.MaxCycles, cfg.Scheme)
	}
	m.finishPhase()
	m.reg.FinishTimeline(m.eng.Now())
	res := m.result(m.reg.Snapshot(m.eng.Now()))
	if m.prof != nil {
		res.Host = m.prof.Finish(m.eng.Now(), m.eng.Executed())
		// Fast-forward effectiveness (sim.skipped_cycles / sim.jumps) rides
		// with the host report rather than the metrics snapshot: it differs
		// between fast-forward on and off while snapshots must not.
		res.Host.SkippedCycles = m.eng.SkippedCycles()
		res.Host.Jumps = m.eng.Jumps()
	}
	return res, nil
}
