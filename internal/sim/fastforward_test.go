package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// sleepTicker is a test Sleeper modelled on a core: each cycle it ticks it
// does one unit of queued work or charges one idle cycle, and it sleeps
// whenever its queue is empty, charging the idle cycles it slept through
// lazily. Settled, idle+len(done) equals the cycles since registration at
// cycle 0.
type sleepTicker struct {
	id      int
	w       Waker
	queued  int
	idle    uint64
	ticks   []uint64 // cycles Tick ran
	done    []uint64 // cycles a unit of work ran
	asleep  bool
	sleptAt uint64
	// log, when set, records (cycle, id) for every unit of work across
	// tickers; onWork runs after each unit.
	log    *[][2]uint64
	onWork func()
}

func (s *sleepTicker) SetWaker(w Waker) { s.w = w }

func (s *sleepTicker) Tick(now uint64) {
	s.ticks = append(s.ticks, now)
	if s.asleep {
		s.asleep = false
		s.idle += now - 1 - s.sleptAt
	}
	if s.queued > 0 {
		s.queued--
		s.done = append(s.done, now)
		if s.log != nil {
			*s.log = append(*s.log, [2]uint64{now, uint64(s.id)})
		}
		if s.onWork != nil {
			s.onWork()
		}
	} else {
		s.idle++
	}
	if s.queued == 0 && s.w.Sleep() {
		s.asleep, s.sleptAt = true, now
	}
}

func (s *sleepTicker) Settle(now uint64) {
	if s.asleep {
		s.idle += now - s.sleptAt
		s.sleptAt = now
	}
}

// give queues one unit of work and wakes the ticker.
func (s *sleepTicker) give() {
	s.queued++
	s.w.Wake()
}

// settled reports whether the ticker's counters account for every cycle
// up to now.
func (s *sleepTicker) settled(now uint64) bool {
	return s.idle+uint64(len(s.done)) == now
}

// TestCycleZeroEventObservesNowZero pins the cycle-0 fix: an event scheduled
// with At(0, fn) before the first Step must observe Now() == 0, not 1.
func TestCycleZeroEventObservesNowZero(t *testing.T) {
	e := New()
	observed := uint64(999)
	e.At(0, func() { observed = e.Now() })
	e.Run(1)
	if observed != 0 {
		t.Fatalf("At(0) event observed Now() == %d, want 0", observed)
	}
	if e.Now() != 1 {
		t.Fatalf("Run(1) left clock at %d, want 1", e.Now())
	}
}

// TestCycleZeroEventBeforeTickers checks the cycle-0 event also runs before
// cycle 1's tickers, preserving event/ticker ordering across the fix.
func TestCycleZeroEventBeforeTickers(t *testing.T) {
	e := New()
	var order []string
	e.At(0, func() { order = append(order, "event0") })
	e.AddTicker(TickerFunc(func(now uint64) { order = append(order, "tick") }))
	e.Schedule(1, func() { order = append(order, "event1") })
	e.Run(1)
	want := []string{"event0", "tick", "event1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestHookCatchUp pins the phase-drift fix: if the clock somehow moves more
// than one window past a hook boundary in a single Step, the hook fires once
// per elapsed boundary with the boundary cycle as now, instead of firing
// once and drifting.
func TestHookCatchUp(t *testing.T) {
	e := New()
	var fired []uint64
	e.SetInterval(10, func(now uint64) { fired = append(fired, now) })
	e.now = 49 // white-box: simulate a multi-window advance
	e.Step()   // now = 50
	if want := []uint64{10, 20, 30, 40, 50}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("interval hook fired at %v, want %v", fired, want)
	}
	// Phase is intact: the next boundaries are 60 and 70.
	e.Run(25) // now = 75
	if want := []uint64{10, 20, 30, 40, 50, 60, 70}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("post-catch-up boundaries: %v, want %v", fired, want)
	}
}

// TestHookReRegisterInsideCallback re-registers the hook from within its own
// callback; the new registration must anchor at the firing boundary and the
// old phase must not fire again, and disabling it there must stop it.
func TestHookReRegisterInsideCallback(t *testing.T) {
	e := New()
	var fired []uint64
	second := func(now uint64) { fired = append(fired, now) }
	e.SetInterval(10, func(now uint64) {
		fired = append(fired, now)
		e.SetInterval(7, second)
	})
	e.Run(20)
	// First registration fires at 10 and swaps in the 7-cycle hook, which
	// then fires at 17 (10+7).
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 17 {
		t.Fatalf("interval hook fired at %v, want [10 17]", fired)
	}

	e2 := New()
	var ifired []uint64
	e2.SetInterval(10, func(now uint64) {
		ifired = append(ifired, now)
		e2.SetInterval(0, nil) // disable from inside the callback
	})
	e2.Run(40)
	if len(ifired) != 1 || ifired[0] != 10 {
		t.Fatalf("interval hook fired at %v, want [10]", ifired)
	}
}

// TestFastForwardSkipsIdleSpan: with every ticker asleep, the clock jumps
// straight to the pending event, then to the run limit, and the sleeper is
// settled for every skipped cycle on return.
func TestFastForwardSkipsIdleSpan(t *testing.T) {
	e := New()
	s := &sleepTicker{}
	e.AddTicker(s)
	fired := uint64(0)
	e.Schedule(100, func() { fired = e.Now() })
	e.Run(200)
	if fired != 100 {
		t.Fatalf("event fired at %d, want 100", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("clock at %d, want 200", e.Now())
	}
	// The sleeper ticks once, at cycle 1, and sleeps; then two jumps: to
	// the event at 100 and to the limit at 200, each landing with a Step.
	if !reflect.DeepEqual(s.ticks, []uint64{1}) {
		t.Fatalf("ticks = %v, want [1]", s.ticks)
	}
	if e.Jumps() != 2 || e.SkippedCycles() != 197 {
		t.Fatalf("Jumps = %d, SkippedCycles = %d; want 2 and 197", e.Jumps(), e.SkippedCycles())
	}
	if s.idle != 200 {
		t.Fatalf("idle = %d after Run(200), want 200 (settled)", s.idle)
	}
}

// TestFastForwardWakeOrder pins when a woken ticker ticks: in the same cycle
// when a lower-index ticker woke it during the ticker phase, in the next
// cycle when a higher-index ticker or an event woke it — exactly when a
// ticker polled every cycle first sees the work.
func TestFastForwardWakeOrder(t *testing.T) {
	for _, ff := range []bool{true, false} {
		e := New()
		e.SetFastForward(ff)
		a, b, c := &sleepTicker{id: 0}, &sleepTicker{id: 1}, &sleepTicker{id: 2}
		for _, s := range []*sleepTicker{a, b, c} {
			e.AddTicker(s)
		}
		a.onWork = b.give      // lower wakes higher
		c.onWork = b.give      // higher wakes lower
		e.Schedule(4, a.give)  // a works at 5, b at 5
		e.Schedule(9, c.give)  // c works at 10, b at 11
		e.Schedule(15, b.give) // b works at 16
		e.Run(30)
		if want := []uint64{5, 11, 16}; !reflect.DeepEqual(b.done, want) {
			t.Errorf("ff=%v: b worked at %v, want %v", ff, b.done, want)
		}
		if ff && len(b.ticks) != 4 {
			// Cycle 1 (every ticker starts awake) plus its three work cycles.
			t.Errorf("b ticked at %v, want 4 ticks", b.ticks)
		}
	}
}

// TestFastForwardHooksSeeSettledCounters: the interval hook, and
// Run/RunUntil returns, observe every sleeper charged up to the clock.
func TestFastForwardHooksSeeSettledCounters(t *testing.T) {
	e := New()
	ts := []*sleepTicker{{id: 0}, {id: 1}}
	for _, s := range ts {
		e.AddTicker(s)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		e.Schedule(uint64(1+rng.Intn(500)), ts[rng.Intn(2)].give)
	}
	hooks := 0
	check := func(where string) {
		for _, s := range ts {
			if !s.settled(e.Now()) {
				t.Fatalf("%s at %d: ticker %d has idle %d + work %d", where, e.Now(), s.id, s.idle, len(s.done))
			}
		}
	}
	e.SetInterval(10, func(uint64) { hooks++; check("interval") })
	e.Run(503)
	check("Run")
	e.RunUntil(func() bool { return false }, 17)
	check("RunUntil")
	if hooks != 52 {
		t.Fatalf("hook fired %d times, want 52", hooks)
	}
	if e.Jumps() == 0 {
		t.Fatal("never jumped: the settle path went untested")
	}
}

// TestFastForwardJumpsOnlyWhenNothingAwake: one awake ticker keeps the
// clock stepping; the jump comes only once the last one sleeps.
func TestFastForwardJumpsOnlyWhenNothingAwake(t *testing.T) {
	e := New()
	busy, idle := &sleepTicker{queued: 50}, &sleepTicker{}
	e.AddTicker(idle) // asleep from cycle 1
	e.AddTicker(busy) // awake through cycle 50
	e.Run(200)
	for i, c := range busy.ticks {
		if c != uint64(i+1) {
			t.Fatalf("busy ticker missed cycle %d while awake: ticks %v", i+1, busy.ticks)
		}
	}
	if len(busy.ticks) != 50 {
		t.Fatalf("busy ticker ticked %d times, want 50", len(busy.ticks))
	}
	if e.Jumps() != 1 || e.SkippedCycles() != 149 {
		t.Fatalf("Jumps = %d, SkippedCycles = %d; want one jump over 51..199", e.Jumps(), e.SkippedCycles())
	}
	if !busy.settled(200) || !idle.settled(200) {
		t.Fatalf("unsettled after Run: busy idle %d, idle idle %d", busy.idle, idle.idle)
	}
}

// TestFastForwardHonorsHookBoundaries: jumps clamp to interval boundaries
// so the hook fires at exactly the same cycles as a stepped run.
func TestFastForwardHonorsHookBoundaries(t *testing.T) {
	e := New()
	e.AddTicker(&sleepTicker{})
	var fired []uint64
	e.SetInterval(10, func(now uint64) { fired = append(fired, now) })
	e.Run(50)
	if want := []uint64{10, 20, 30, 40, 50}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("interval hook fired at %v, want %v", fired, want)
	}
	if e.Jumps() == 0 {
		t.Fatal("never jumped between boundaries")
	}
}

// TestFastForwardInertWithPlainTicker: a plain Ticker never sleeps, so it
// ticks every cycle and the clock never jumps.
func TestFastForwardInertWithPlainTicker(t *testing.T) {
	e := New()
	e.AddTicker(&sleepTicker{})
	n := 0
	e.AddTicker(TickerFunc(func(uint64) { n++ }))
	e.Run(100)
	if e.Jumps() != 0 || e.SkippedCycles() != 0 {
		t.Fatalf("jumped with a plain ticker registered: jumps=%d skipped=%d", e.Jumps(), e.SkippedCycles())
	}
	if n != 100 {
		t.Fatalf("plain ticker ran %d times, want 100", n)
	}
}

// TestFastForwardDisabledBySwitch: SetFastForward(false) wakes a sleeping
// ticker and then ticks every ticker every cycle, never jumping.
func TestFastForwardDisabledBySwitch(t *testing.T) {
	e := New()
	s := &sleepTicker{}
	e.AddTicker(s)
	e.Run(10) // asleep since cycle 1
	e.SetFastForward(false)
	if e.fastForward {
		t.Fatal("fast-forward still on after SetFastForward(false)")
	}
	jumps, skipped := e.Jumps(), e.SkippedCycles()
	e.Run(100)
	if e.Jumps() != jumps || e.SkippedCycles() != skipped {
		t.Fatalf("jumped while disabled: jumps %d->%d skipped %d->%d", jumps, e.Jumps(), skipped, e.SkippedCycles())
	}
	if len(s.ticks) != 101 || s.ticks[1] != 11 || s.ticks[100] != 110 {
		t.Fatalf("ticks = %v, want 1 then every cycle 11..110", s.ticks)
	}
	if !s.settled(110) {
		t.Fatalf("idle = %d at 110", s.idle)
	}
}

// TestFastForwardEquivalence runs randomized programs — events and tickers
// handing work to lower- and higher-index tickers — through the
// activity-driven engine and the polled one, and requires the same work at
// the same cycles in the same order, the same event and hook cycles, and
// the same settled counters at every hook.
func TestFastForwardEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		type trace struct {
			work    [][2]uint64
			events  []uint64
			samples [][]uint64 // idle per ticker at each hook firing
		}
		run := func(ff bool) trace {
			var tr trace
			e := New()
			e.SetFastForward(ff)
			// Consumed in execution order, so an ordering difference
			// derails the rest of the program instead of hiding.
			r := rand.New(rand.NewSource(seed))
			ts := make([]*sleepTicker, 5)
			for i := range ts {
				ts[i] = &sleepTicker{id: i, log: &tr.work}
				e.AddTicker(ts[i])
			}
			for _, s := range ts {
				s.onWork = func() {
					if r.Intn(3) == 0 {
						ts[r.Intn(len(ts))].give()
					}
				}
			}
			e.SetInterval(37, func(uint64) {
				idle := make([]uint64, len(ts))
				for i, s := range ts {
					idle[i] = s.idle
				}
				tr.samples = append(tr.samples, idle)
			})
			for i := 0; i < 30; i++ {
				s := ts[r.Intn(len(ts))]
				e.Schedule(uint64(1+r.Intn(400)), func() {
					tr.events = append(tr.events, e.Now())
					s.give()
				})
			}
			e.Run(450)
			return tr
		}
		a, b := run(true), run(false)
		if !reflect.DeepEqual(a.work, b.work) {
			t.Fatalf("seed %d: work differs:\n  ff:     %v\n  polled: %v", seed, a.work, b.work)
		}
		if !reflect.DeepEqual(a.events, b.events) {
			t.Fatalf("seed %d: event cycles differ: ff=%v polled=%v", seed, a.events, b.events)
		}
		if !reflect.DeepEqual(a.samples, b.samples) {
			t.Fatalf("seed %d: settled counters at hook firings differ:\n  ff:     %v\n  polled: %v", seed, a.samples, b.samples)
		}
	}
}

// TestEventFIFOAcrossHeapChurn grows and shrinks the heap by scheduling new
// events from inside running events under a seeded random schedule, and
// requires global (cycle, insertion) order to hold throughout.
func TestEventFIFOAcrossHeapChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := New()
	type fired struct {
		cycle uint64
		id    int
	}
	var log []fired
	nextID := 0
	var add func(depth int) // schedules one event that may schedule more
	add = func(depth int) {
		id := nextID
		nextID++
		e.Schedule(uint64(1+rng.Intn(30)), func() {
			log = append(log, fired{e.Now(), id})
			if depth > 0 && rng.Intn(2) == 0 {
				for i := 0; i < 1+rng.Intn(3); i++ {
					add(depth - 1)
				}
			}
		})
	}
	for i := 0; i < 100; i++ {
		add(3)
	}
	e.Run(200)
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after drain window", e.Pending())
	}
	if len(log) != nextID {
		t.Fatalf("fired %d of %d events", len(log), nextID)
	}
	for i := 1; i < len(log); i++ {
		if log[i].cycle < log[i-1].cycle {
			t.Fatalf("event %d fired at %d after event %d at %d", log[i].id, log[i].cycle, log[i-1].id, log[i-1].cycle)
		}
	}
	// Same-cycle events fire in insertion order. IDs are assigned in
	// scheduling order, so within one cycle they must increase.
	byCycle := map[uint64][]int{}
	for _, f := range log {
		byCycle[f.cycle] = append(byCycle[f.cycle], f.id)
	}
	for c, ids := range byCycle {
		for i := 1; i < len(ids); i++ {
			if ids[i] < ids[i-1] {
				t.Fatalf("cycle %d: same-cycle events out of FIFO order: %v", c, ids)
			}
		}
	}
}

// TestRunUntilBoundaries pins RunUntil's edge semantics: pred is evaluated
// before any cycle runs, maxCycles bounds the advance exactly, and a pred
// that becomes true on the final permitted cycle is still observed.
func TestRunUntilBoundaries(t *testing.T) {
	// pred already true: no cycles run.
	e := New()
	if !e.RunUntil(func() bool { return true }, 100) {
		t.Fatal("RunUntil(true) = false")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %d for an already-true pred", e.Now())
	}

	// maxCycles == 0: no advance, pred decides the result.
	if e.RunUntil(func() bool { return false }, 0) {
		t.Fatal("RunUntil(false, 0) = true")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %d with maxCycles 0", e.Now())
	}

	// pred becomes true on exactly the last permitted cycle.
	e2 := New()
	done := false
	e2.Schedule(10, func() { done = true })
	if !e2.RunUntil(func() bool { return done }, 10) {
		t.Fatal("RunUntil missed a pred satisfied on the final cycle")
	}
	if e2.Now() != 10 {
		t.Fatalf("stopped at %d, want 10", e2.Now())
	}

	// Exhaustion: the clock advances exactly maxCycles.
	e3 := New()
	if e3.RunUntil(func() bool { return false }, 25) {
		t.Fatal("RunUntil reported success for an impossible pred")
	}
	if e3.Now() != 25 {
		t.Fatalf("clock at %d after exhaustion, want 25", e3.Now())
	}

	// Fast-forward variant: pred driven by an event, every ticker asleep,
	// same stopping cycle as the stepped run above.
	e4 := New()
	e4.AddTicker(&sleepTicker{})
	done4 := false
	e4.Schedule(10, func() { done4 = true })
	if !e4.RunUntil(func() bool { return done4 }, 10) {
		t.Fatal("fast-forward RunUntil missed the pred")
	}
	if e4.Now() != 10 {
		t.Fatalf("fast-forward stopped at %d, want 10", e4.Now())
	}
	if e4.Jumps() == 0 {
		t.Fatal("fast-forward RunUntil never jumped across the idle span")
	}
}
