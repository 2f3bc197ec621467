package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run(5)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run(1)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events out of FIFO order: %v", got)
		}
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(1, func() {
		e.Schedule(0, func() { ran = true })
	})
	e.Run(1)
	if !ran {
		t.Fatal("zero-delay event did not run within the same cycle")
	}
}

func TestTickersRunBeforeEvents(t *testing.T) {
	e := New()
	var order []string
	e.AddTicker(TickerFunc(func(now uint64) {
		if now == 1 {
			order = append(order, "tick")
		}
	}))
	e.Schedule(1, func() { order = append(order, "event") })
	e.Run(1)
	if len(order) != 2 || order[0] != "tick" || order[1] != "event" {
		t.Fatalf("order = %v, want [tick event]", order)
	}
}

func TestTickerEveryCycle(t *testing.T) {
	e := New()
	n := 0
	e.AddTicker(TickerFunc(func(uint64) { n++ }))
	e.Run(100)
	if n != 100 {
		t.Fatalf("ticker ran %d times, want 100", n)
	}
}

func TestAtPastPanics(t *testing.T) {
	e := New()
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestNilEventPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestRunUntil(t *testing.T) {
	e := New()
	done := false
	e.Schedule(50, func() { done = true })
	if !e.RunUntil(func() bool { return done }, 1000) {
		t.Fatal("RunUntil did not observe the condition")
	}
	if e.Now() != 50 {
		t.Fatalf("stopped at cycle %d, want 50", e.Now())
	}
	if e.RunUntil(func() bool { return false }, 10) {
		t.Fatal("RunUntil reported success for an impossible condition")
	}
}

func TestPending(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Schedule(6, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run(10)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// TestEventOrderProperty: for any random set of delays, events fire in
// nondecreasing cycle order, and equal cycles preserve insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		n := 50 + rng.Intn(200)
		delays := make([]uint64, n)
		for i := range delays {
			delays[i] = uint64(rng.Intn(40))
		}
		type fired struct {
			cycle uint64
			idx   int
		}
		var log []fired
		for i, d := range delays {
			i := i
			e.Schedule(d+1, func() { log = append(log, fired{e.Now(), i}) })
		}
		e.Run(50)
		if len(log) != n {
			return false
		}
		if !sort.SliceIsSorted(log, func(a, b int) bool {
			if log[a].cycle != log[b].cycle {
				return log[a].cycle < log[b].cycle
			}
			return log[a].idx < log[b].idx
		}) {
			return false
		}
		// Cycle order must match delay order.
		for i, f := range log {
			_ = i
			if f.cycle != delays[f.idx]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalHook(t *testing.T) {
	e := New()
	var fired []uint64
	e.SetInterval(100, func(now uint64) { fired = append(fired, now) })
	if e.intervalEvery != 100 {
		t.Fatalf("interval period = %d", e.intervalEvery)
	}
	e.Run(350)
	if len(fired) != 3 || fired[0] != 100 || fired[1] != 200 || fired[2] != 300 {
		t.Fatalf("interval hook fired at %v, want [100 200 300]", fired)
	}
	// Disabling stops further firings.
	e.SetInterval(0, nil)
	if e.intervalFn != nil {
		t.Fatal("interval hook still registered after disable")
	}
	e.Run(200)
	if len(fired) != 3 {
		t.Fatalf("interval hook fired after disable: %v", fired)
	}
}

func TestIntervalDefault(t *testing.T) {
	e := New()
	e.SetInterval(0, func(uint64) {})
	if e.intervalEvery != DefaultInterval {
		t.Fatalf("interval period = %d, want DefaultInterval %d", e.intervalEvery, DefaultInterval)
	}
}

func TestIntervalReanchors(t *testing.T) {
	// Re-registering mid-run restarts the phase at the current cycle — the
	// property RunContext relies on to align windows with the ROI boundary.
	e := New()
	var fired []uint64
	fn := func(now uint64) { fired = append(fired, now) }
	e.SetInterval(100, fn)
	e.Run(250) // fires at 100, 200; now = 250
	e.SetInterval(100, fn)
	e.Run(250) // re-anchored: fires at 350, 450 — not 300
	if len(fired) != 4 || fired[2] != 350 || fired[3] != 450 {
		t.Fatalf("interval hook fired at %v, want [100 200 350 450]", fired)
	}
	// Re-enabling after a disable anchors at the current cycle too, not at
	// the boundary left over from before the disable.
	e.SetInterval(0, nil)
	e.Run(300) // disabled: nothing fires; now = 800
	e.SetInterval(100, fn)
	e.Run(150) // fires at 900 only
	if len(fired) != 5 || fired[4] != 900 {
		t.Fatalf("interval hook fired at %v, want [100 200 350 450 900]", fired)
	}
}

func TestExecutedCounts(t *testing.T) {
	e := New()
	if e.Executed() != 0 {
		t.Fatal("fresh engine has executed events")
	}
	for i := 0; i < 5; i++ {
		e.Schedule(uint64(i+1), func() {})
	}
	e.Run(10)
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
}
