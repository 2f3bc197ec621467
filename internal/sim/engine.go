// Package sim provides the deterministic simulation engine that drives every
// component in the repository: a cycle-ordered event queue plus a set of
// per-cycle tickers.
//
// Two execution styles coexist:
//
//   - Event-driven components (caches, OS routines, completion callbacks)
//     schedule closures with Engine.Schedule / Engine.At.
//   - Cycle-driven components (CPU cores, DRAM channel schedulers) register a
//     Ticker and are invoked once per simulated cycle.
//
// Determinism: events scheduled for the same cycle run in FIFO order of
// scheduling, and tickers run in registration order before the cycle's
// events. A given (configuration, workload, seed) therefore always produces
// identical statistics, which the tests rely on.
//
// The event queue itself sits behind the Scheduler interface: the default
// WheelScheduler (hierarchical timing wheel, allocation-free steady state)
// and the original HeapScheduler (binary min-heap, kept as the
// differential-testing oracle) are interchangeable via WithScheduler, and
// the equivalence tests prove both produce byte-identical runs.
//
// Fast-forward: when every registered ticker also implements FastForwarder
// and reports quiescence, Run/RunUntil jump the clock directly to the next
// cycle at which anything can happen — the earliest ticker wake-up, the
// scheduler's NextDue, or the next sampler/interval boundary — instead of
// stepping one cycle at a time. Skipped cycles are bulk-accounted through
// SkipCycles, and the jump target always lands on a real Step, so a run
// with fast-forward enabled is state-identical (byte-identical snapshots,
// timelines, and traces) to the same run stepped cycle by cycle. See
// DESIGN.md, "Idle-cycle fast-forward".
package sim

import (
	"fmt"

	"nomad/internal/check"
)

// Ticker is a component that needs to observe every simulated cycle.
type Ticker interface {
	// Tick is called exactly once per cycle, after the cycle counter has
	// advanced and before that cycle's scheduled events run.
	Tick(now uint64)
}

// NoWork is the NextWork return value meaning "only a scheduled event can
// give this ticker work": the ticker is quiescent indefinitely.
const NoWork = ^uint64(0)

// FastForwarder is the optional Ticker extension that enables idle-cycle
// fast-forward. The engine only jumps when every registered ticker
// implements it.
type FastForwarder interface {
	Ticker
	// NextWork reports the earliest cycle after now at which this ticker's
	// Tick might do anything beyond per-cycle stall accounting, assuming no
	// scheduled event runs in between (the engine separately bounds jumps
	// by the event queue). Returning now+1 declines fast-forward for this
	// cycle; returning NoWork means only an event can create work. The
	// contract: for every cycle c in (now, NextWork(now)), Tick(c) must be
	// exactly equivalent to the per-cycle share of SkipCycles.
	NextWork(now uint64) uint64
	// SkipCycles bulk-accounts n skipped cycles (now+1 .. now+n) that the
	// engine verified are quiescent for every ticker. Implementations
	// charge the same stall buckets n of their Ticks would have charged.
	SkipCycles(now, n uint64)
}

// TickerFunc adapts a plain function to the Ticker interface.
type TickerFunc func(now uint64)

// Tick implements Ticker.
func (f TickerFunc) Tick(now uint64) { f(now) }

// Engine is the simulation clock. The zero value is not usable; call New.
//
//nomad:ephemeral event-engine bookkeeping; the interval digest chain derived from it is the observable record
type Engine struct {
	now      uint64
	executed uint64
	sched    Scheduler
	tickers  []Ticker

	// Fast-forward state: ff mirrors tickers when every registered ticker
	// implements FastForwarder (allFF); skipped/jumps count bulk-advanced
	// cycles and the jumps that advanced them.
	fastForward bool
	allFF       bool
	ff          []FastForwarder
	skipped     uint64
	jumps       uint64

	// Sampling hook: fn runs every sampleEvery cycles (metrics time
	// series). Kept separate from tickers because it fires at window
	// granularity, not per cycle.
	sampleEvery uint64
	sampleFn    func(now uint64)
	nextSample  uint64

	// Interval hook: a second, coarser windowed hook (default 100k cycles)
	// used for timeline telemetry and progress reporting. Re-registering it
	// re-anchors the phase, which is how interval boundaries are aligned to
	// the region-of-interest start.
	intervalEvery uint64
	intervalFn    func(now uint64)
	nextInterval  uint64
}

// DefaultInterval is the interval-hook period (in cycles) used when a caller
// passes 0 to SetInterval.
const DefaultInterval = 100_000

// Option configures an Engine at construction.
type Option func(*Engine)

// WithScheduler selects the event-queue implementation. The default is the
// timing wheel; pass NewHeapScheduler() (or NewScheduler(KindHeap)) to run
// on the binary-heap oracle instead.
func WithScheduler(s Scheduler) Option {
	return func(e *Engine) {
		if s != nil {
			e.sched = s
		}
	}
}

// New returns an Engine at cycle 0 with no pending work, running on the
// timing-wheel scheduler unless WithScheduler overrides it. Fast-forward is
// enabled by default; it only takes effect while every registered ticker
// implements FastForwarder, so engines driving plain Tickers behave exactly
// as before.
func New(opts ...Option) *Engine {
	e := &Engine{fastForward: true, allFF: true, sched: NewWheelScheduler()}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// SchedulerImpl returns the engine's event queue (for tests and tooling that
// need to inspect which implementation is driving the run).
func (e *Engine) SchedulerImpl() Scheduler { return e.sched }

// AddTicker registers t to be invoked every cycle. Tickers run in
// registration order. A ticker that does not implement FastForwarder
// disables fast-forward for the whole engine (conservative: the engine can
// no longer prove a span is quiescent).
func (e *Engine) AddTicker(t Ticker) {
	e.tickers = append(e.tickers, t)
	if f, ok := t.(FastForwarder); ok && e.allFF {
		e.ff = append(e.ff, f)
	} else {
		e.allFF = false
		e.ff = nil
	}
}

// SetFastForward enables or disables idle-cycle fast-forward. It is on by
// default; disabling forces the engine to step every cycle (the -no-ff
// escape hatch, and the reference behaviour the equivalence tests compare
// against).
func (e *Engine) SetFastForward(on bool) { e.fastForward = on }

// FastForwardEnabled reports whether fast-forward is switched on (it may
// still be inert if a registered ticker does not support it).
func (e *Engine) FastForwardEnabled() bool { return e.fastForward }

// SkippedCycles returns the total cycles bulk-advanced by fast-forward
// jumps. Deliberately not part of the metrics snapshot: it differs between
// fast-forward on and off, and snapshots must be byte-identical across the
// two (it surfaces through the host-side self-profile instead).
func (e *Engine) SkippedCycles() uint64 { return e.skipped }

// Jumps returns the number of fast-forward jumps taken.
func (e *Engine) Jumps() uint64 { return e.jumps }

// Schedule runs fn delay cycles from now. A delay of 0 runs fn later in the
// current cycle (after already-queued same-cycle events).
func (e *Engine) Schedule(delay uint64, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at the given absolute cycle, which must not be in the past.
func (e *Engine) At(cycle uint64, fn func()) {
	if cycle < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, now is %d", cycle, e.now))
	}
	e.sched.ScheduleAt(cycle, fn)
}

// SetSampler registers fn to run every `every` cycles, after that cycle's
// tickers and events. The metrics registry hangs its time-series sampling
// off this hook. A nil fn or zero period disables sampling.
func (e *Engine) SetSampler(every uint64, fn func(now uint64)) {
	if every == 0 || fn == nil {
		e.sampleFn = nil
		return
	}
	e.sampleEvery = every
	e.sampleFn = fn
	e.nextSample = e.now + every
}

// SampleWindow returns the configured sampling period (0 when disabled).
func (e *Engine) SampleWindow() uint64 {
	if e.sampleFn == nil {
		return 0
	}
	return e.sampleEvery
}

// SetInterval registers fn to run every `every` cycles (0 selects
// DefaultInterval), after that cycle's tickers, events, and sampler. The
// first firing is exactly `every` cycles from now: re-registering at the
// region-of-interest boundary re-anchors the phase so interval windows align
// with the measured region. A nil fn disables the hook.
//
// Boundary exactness is a contract: the hook fires at every elapsed
// boundary with the boundary cycle as now, and fast-forward jumps never
// pass nextInterval (tryJump bounds on it), so hook-driven captures — the
// metrics timeline and the interval digest chains — observe identical
// machine state at identical cycles across engines and fast-forward modes.
func (e *Engine) SetInterval(every uint64, fn func(now uint64)) {
	if fn == nil {
		e.intervalFn = nil
		return
	}
	if every == 0 {
		every = DefaultInterval
	}
	e.intervalEvery = every
	e.intervalFn = fn
	e.nextInterval = e.now + every
}

// Interval returns the configured interval period (0 when disabled).
func (e *Engine) Interval() uint64 {
	if e.intervalFn == nil {
		return 0
	}
	return e.intervalEvery
}

// Executed returns the number of events run so far — the denominator of the
// simulator's own events/sec throughput (host self-profiling).
func (e *Engine) Executed() uint64 { return e.executed }

// Step advances the clock by one cycle: any event still due at the current
// cycle first (events scheduled for cycle N outside a Step — engine setup at
// cycle 0, hook callbacks — run before cycle N ends, observing Now() == N),
// then tickers, then every event due at the new cycle (including events
// those events schedule for the same cycle), then the sampler and interval
// hooks for every window boundary that has elapsed.
func (e *Engine) Step() {
	// Unconditional Advance: besides draining stragglers, it slides the
	// scheduler's clock to e.now, so events the tickers are about to
	// schedule take the wheel's O(1) near-window path even right after a
	// fast-forward jump.
	e.executed += e.sched.Advance(e.now)
	e.now++
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
	e.executed += e.sched.Advance(e.now)
	// Both hooks catch up to every elapsed boundary, each firing with the
	// boundary cycle as now, so a multi-window advance cannot shift the
	// window phase. (Single-cycle steps hit each boundary exactly; the
	// loops also keep the phase honest should the clock ever move faster.)
	if e.sampleFn != nil {
		for e.now >= e.nextSample {
			boundary := e.nextSample
			e.nextSample += e.sampleEvery
			e.sampleFn(boundary)
			if e.sampleFn == nil {
				break
			}
		}
	}
	if e.intervalFn != nil {
		for e.now >= e.nextInterval {
			boundary := e.nextInterval
			e.nextInterval += e.intervalEvery
			e.intervalFn(boundary)
			if e.intervalFn == nil {
				break
			}
		}
	}
}

// minJump is the smallest span worth jumping over. A jump's fixed cost —
// polling every ticker, bulk-accounting, one landing Step — is comparable
// to stepping a handful of quiescent cycles, so shorter spans are cheaper
// to step. Skipping a span is always optional, so the threshold cannot
// affect results, only throughput.
const minJump = 8

// tryJump attempts one fast-forward jump, never advancing past limit (the
// last cycle the caller may reach). It returns false — leaving the clock
// untouched — when fast-forward is inert or the nearest ticker wake-up,
// event, or hook boundary is within minJump cycles. On success the skipped
// span (now+1 .. target-1) is bulk-accounted through every ticker's
// SkipCycles and the clock lands on the target via one normal Step, so
// ticker/event/hook ordering at the target is identical to the stepped
// engine.
func (e *Engine) tryJump(limit uint64) bool {
	if !e.fastForward || !e.allFF {
		return false
	}
	target := limit
	// The scheduler's NextDue is the cheapest bound and, in busy phases,
	// the one that usually forbids jumping — check it before polling
	// tickers.
	if due := e.sched.NextDue(); due < target {
		target = due
	}
	if e.sampleFn != nil && e.nextSample < target {
		target = e.nextSample
	}
	if e.intervalFn != nil && e.nextInterval < target {
		target = e.nextInterval
	}
	if target < e.now+1+minJump {
		return false
	}
	for _, f := range e.ff {
		if w := f.NextWork(e.now); w < target {
			if w < e.now+1+minJump {
				return false
			}
			target = w
		}
	}
	if check.Enabled {
		// A jump must never pass a due event or hook boundary: everything
		// that can happen before the target is provably nothing.
		check.Assert(target > e.now+1, "sim: jump to %d from %d saves nothing", target, e.now)
		check.Assert(e.sched.NextDue() >= target,
			"sim: jump to %d passes event due at %d", target, e.sched.NextDue())
		check.Assert(e.sampleFn == nil || e.nextSample >= target,
			"sim: jump to %d passes sample boundary %d", target, e.nextSample)
		check.Assert(e.intervalFn == nil || e.nextInterval >= target,
			"sim: jump to %d passes interval boundary %d", target, e.nextInterval)
		check.Assert(target <= limit, "sim: jump to %d passes caller limit %d", target, limit)
	}
	n := target - e.now - 1
	for _, f := range e.ff {
		f.SkipCycles(e.now, n)
	}
	e.skipped += n
	e.jumps++
	e.now = target - 1
	e.Step()
	return true
}

// Run advances the clock by cycles cycles, fast-forwarding across quiescent
// spans when enabled (the observable end state is identical either way).
func (e *Engine) Run(cycles uint64) {
	end := e.now + cycles
	for e.now < end {
		if !e.tryJump(end) {
			e.Step()
		}
	}
}

// RunUntil advances the clock until pred returns true or maxCycles elapse.
// It reports whether pred was satisfied. pred is evaluated at every cycle
// the engine actually executes; fast-forward skips only spans in which no
// ticker, event, or hook runs, so a pred that depends on simulation
// progress (retired instructions, completed events) is checked at exactly
// the cycles where its value can change.
func (e *Engine) RunUntil(pred func() bool, maxCycles uint64) bool {
	end := e.now + maxCycles
	for e.now < end {
		if pred() {
			return true
		}
		if !e.tryJump(end) {
			e.Step()
		}
	}
	return pred()
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return e.sched.Pending() }
