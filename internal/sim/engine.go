// Package sim provides the deterministic simulation engine that drives every
// component in the repository: a cycle-ordered event queue plus a set of
// per-cycle tickers.
//
// Two execution styles coexist:
//
//   - Event-driven components (caches, OS routines, completion callbacks)
//     schedule closures with Engine.Schedule / Engine.At.
//   - Cycle-driven components (CPU cores, DRAM channel schedulers) register a
//     Ticker and are invoked once per simulated cycle while they are awake.
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
// Activity-driven ticking: a ticker that implements Sleeper leaves the
// engine's active set after a Tick when only a wake can give it work, and
// whatever gives it work puts it back through the Waker that AddTicker
// handed it. Step ticks only awake tickers, in registration order,
// re-reading the set as it goes: a ticker woken by a lower-index ticker
// ticks in the same cycle, and any other wake takes effect the next cycle —
// exactly when a ticker polled every cycle would first see the change. A
// sleeper charges the cycles it slept through lazily, on its next Tick or
// when the engine settles it (before the interval hook runs and before
// Run/RunUntil return). When nothing is awake, Run/RunUntil jump the
// clock to the next event, hook boundary or run limit, landing on a normal
// Step. With fast-forward off every ticker ticks every cycle: that polled
// engine is the reference the byte-identity suites compare against. See
// DESIGN.md, "Activity-driven ticking".
package sim

import (
	"fmt"
	"math/bits"

	"nomad/internal/check"
)

// Ticker is a component that needs to observe simulated cycles.
type Ticker interface {
	// Tick is called once per cycle the ticker is awake (every cycle for
	// a plain Ticker), after the cycle counter has advanced and before
	// that cycle's scheduled events run.
	Tick(now uint64)
}

// Sleeper is the optional Ticker extension for activity-driven ticking. A
// sleeper ends a Tick with Waker.Sleep when its next Tick could only charge
// per-cycle stall accounting, and every call or event that changes that
// calls Waker.Wake.
type Sleeper interface {
	Ticker
	// SetWaker hands the ticker its wake handle. AddTicker calls it once,
	// at registration.
	SetWaker(w Waker)
	// Settle charges every cycle up to and including now that the ticker
	// slept through since its last Tick, exactly as the missed Ticks would
	// have, so its counters are current. It does nothing for a ticker that
	// has not slept since its last Tick.
	Settle(now uint64)
}

// sleepAuditor is implemented by sleepers that can check, in invariants
// builds, that their next Tick would still do exactly what they recorded on
// falling asleep. Step audits every sleeping ticker after each cycle's
// events, so a state change that forgot to wake its ticker fails in the
// cycle it happened.
type sleepAuditor interface {
	AuditSleep(now uint64)
}

// Waker is a sleeper's handle on the engine's active set. The zero Waker
// (a ticker never registered) never sleeps and ignores wakes.
type Waker struct {
	e    *Engine
	word int
	bit  uint64
}

// Wake puts the ticker back in the active set. Waking an awake ticker does
// nothing.
func (w Waker) Wake() {
	if w.e != nil {
		w.e.awake[w.word] |= w.bit
	}
}

// Sleep takes the ticker out of the active set and reports whether it did.
// With fast-forward off it returns false: the ticker keeps ticking every
// cycle and must charge each cycle itself.
func (w Waker) Sleep() bool {
	if w.e == nil || !w.e.fastForward {
		return false
	}
	w.e.awake[w.word] &^= w.bit
	return true
}

// Now returns the engine's current cycle.
func (w Waker) Now() uint64 { return w.e.now }

// TickerFunc adapts a plain function to the Ticker interface.
type TickerFunc func(now uint64)

// Tick implements Ticker.
func (f TickerFunc) Tick(now uint64) { f(now) }

// Engine is the simulation clock. The zero value is not usable; call New.
type Engine struct {
	now      uint64
	executed uint64
	sched    Scheduler
	tickers  []Ticker
	// awake is the active set: bit i%64 of word i/64 is set while ticker
	// i is awake. With fast-forward off every bit stays set.
	awake []uint64

	// fastForward enables sleeping and clock jumps; skipped/jumps count
	// the cycles jumped over and the jumps that did it.
	fastForward bool
	skipped     uint64
	jumps       uint64

	// Interval hook: the one windowed hook (default 100k cycles), used for
	// timeline and digest sampling and progress reporting. Kept separate
	// from tickers because it fires at window granularity, not per cycle.
	// Re-registering it re-anchors the phase, which is how interval
	// boundaries are aligned to the region-of-interest start.
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
// timing wheel; the differential tests pass NewHeapScheduler() to run on
// the binary-heap oracle instead.
func WithScheduler(s Scheduler) Option {
	return func(e *Engine) {
		if s != nil {
			e.sched = s
		}
	}
}

// New returns an Engine at cycle 0 with no pending work, running on the
// timing-wheel scheduler unless WithScheduler overrides it. Fast-forward is
// enabled by default; only Sleepers ever leave the active set, so a plain
// Ticker ticks every cycle and keeps the clock from jumping.
func New(opts ...Option) *Engine {
	e := &Engine{fastForward: true, sched: NewWheelScheduler()}
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

// AddTicker registers t, awake. Tickers run in registration order. If t
// implements Sleeper, AddTicker hands it the Waker for its slot in the
// active set.
func (e *Engine) AddTicker(t Ticker) {
	i := len(e.tickers)
	e.tickers = append(e.tickers, t)
	if i%64 == 0 {
		e.awake = append(e.awake, 0)
	}
	w := Waker{e: e, word: i / 64, bit: 1 << (i % 64)}
	w.Wake()
	if s, ok := t.(Sleeper); ok {
		s.SetWaker(w)
	}
}

// SetFastForward switches activity-driven ticking on or off. It is on by
// default; switching it off wakes every ticker and forces the engine to
// step and tick every cycle: the polled reference the equivalence tests
// compare against.
func (e *Engine) SetFastForward(on bool) {
	e.fastForward = on
	if !on {
		for i := range e.tickers {
			e.awake[i/64] |= 1 << (i % 64)
		}
	}
}

// SkippedCycles returns the total cycles the clock jumped over while no
// ticker was awake. Deliberately not part of the metrics snapshot: it
// differs between fast-forward on and off, and snapshots must be
// byte-identical across the two (it surfaces through the host-side
// self-profile instead).
func (e *Engine) SkippedCycles() uint64 { return e.skipped }

// Jumps returns the number of clock jumps taken.
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

// SetInterval registers fn to run every `every` cycles (0 selects
// DefaultInterval), after that cycle's tickers and events. The first firing
// is exactly `every` cycles from now: re-registering at the
// region-of-interest boundary re-anchors the phase so interval windows align
// with the measured region. A nil fn disables the hook.
//
// Boundary exactness is a contract: the hook fires at every elapsed
// boundary with the boundary cycle as now, every sleeper is settled first,
// and clock jumps never pass nextInterval (tryJump bounds on it), so
// hook-driven captures — the metrics timeline and the interval digest
// chains — observe identical machine state at identical cycles across
// engines and fast-forward modes.
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

// Executed returns the number of events run so far — the denominator of the
// simulator's own events/sec throughput (host self-profiling).
func (e *Engine) Executed() uint64 { return e.executed }

// Step advances the clock by one cycle: any event still due at the current
// cycle first (events scheduled for cycle N outside a Step — engine setup at
// cycle 0, hook callbacks — run before cycle N ends, observing Now() == N),
// then the awake tickers, then every event due at the new cycle (including
// events those events schedule for the same cycle), then — with every
// sleeper settled — the interval hook for every window boundary that has
// elapsed.
func (e *Engine) Step() {
	// Unconditional Advance: besides draining stragglers, it slides the
	// scheduler's clock to e.now, so events the tickers are about to
	// schedule take the wheel's O(1) near-window path even right after a
	// jump.
	e.executed += e.sched.Advance(e.now)
	e.now++
	for w := range e.awake {
		for set := e.awake[w]; set != 0; {
			b := bits.TrailingZeros64(set)
			e.tickers[w*64+b].Tick(e.now)
			// Re-read the word past b: a ticker woken by this one (or by
			// any lower one) ticks in this cycle too.
			set = e.awake[w] & (^uint64(1) << b)
		}
	}
	e.executed += e.sched.Advance(e.now)
	if check.Enabled {
		e.auditSleepers()
	}
	if e.intervalFn != nil && e.now >= e.nextInterval {
		e.settle()
		// The hook catches up to every elapsed boundary, firing with the
		// boundary cycle as now, so a multi-window advance cannot shift the
		// window phase. (Single-cycle steps hit each boundary exactly; the
		// loop also keeps the phase honest should the clock ever move
		// faster.)
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

// settle brings every sleeper's counters up to the current cycle.
func (e *Engine) settle() {
	for _, t := range e.tickers {
		if s, ok := t.(Sleeper); ok {
			s.Settle(e.now)
		}
	}
}

// auditSleepers asks every sleeping ticker to check that it still holds
// the bucket it recorded on falling asleep (invariants builds only).
func (e *Engine) auditSleepers() {
	for i, t := range e.tickers {
		if e.awake[i/64]&(1<<(i%64)) != 0 {
			continue
		}
		if a, ok := t.(sleepAuditor); ok {
			a.AuditSleep(e.now)
		}
	}
}

// tryJump moves the clock, never past limit (the last cycle the caller may
// reach), when no ticker is awake: straight to the earliest of the next
// due event, the next hook boundary and limit, landing there with one
// normal Step so event/hook ordering at the target is the stepped engine's.
// It returns false, leaving the clock untouched, when fast-forward is off,
// a ticker is awake, or the target is the next cycle anyway.
func (e *Engine) tryJump(limit uint64) bool {
	if !e.fastForward {
		return false
	}
	for _, w := range e.awake {
		if w != 0 {
			return false
		}
	}
	target := limit
	if due := e.sched.NextDue(); due < target {
		target = due
	}
	if e.intervalFn != nil && e.nextInterval < target {
		target = e.nextInterval
	}
	if target <= e.now+1 {
		return false
	}
	if check.Enabled {
		// A jump must never pass a due event or hook boundary: everything
		// that can happen before the target is provably nothing.
		check.Assert(e.sched.NextDue() >= target,
			"sim: jump to %d passes event due at %d", target, e.sched.NextDue())
		check.Assert(e.intervalFn == nil || e.nextInterval >= target,
			"sim: jump to %d passes interval boundary %d", target, e.nextInterval)
		check.Assert(target <= limit, "sim: jump to %d passes caller limit %d", target, limit)
	}
	e.skipped += target - e.now - 1
	e.jumps++
	e.now = target - 1
	e.Step()
	return true
}

// Run advances the clock by cycles cycles, jumping across spans in which
// no ticker is awake (the observable end state is identical either way),
// and returns with every sleeper settled.
func (e *Engine) Run(cycles uint64) {
	end := e.now + cycles
	for e.now < end {
		if !e.tryJump(end) {
			e.Step()
		}
	}
	e.settle()
}

// RunUntil advances the clock until pred returns true or maxCycles elapse,
// and returns with every sleeper settled. It reports whether pred was
// satisfied. pred is evaluated at every cycle the engine actually executes,
// before sleepers are settled, so it must read only state that changes when
// a ticker ticks or an event runs (retired instructions, completed events),
// not counters a sleeper charges lazily. Jumps skip only spans in which no
// ticker is awake and no event or hook runs, so such a pred is checked at
// exactly the cycles where its value can change.
func (e *Engine) RunUntil(pred func() bool, maxCycles uint64) bool {
	end := e.now + maxCycles
	for e.now < end {
		if pred() {
			e.settle()
			return true
		}
		if !e.tryJump(end) {
			e.Step()
		}
	}
	e.settle()
	return pred()
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return e.sched.Pending() }
