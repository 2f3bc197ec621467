package cpu

import (
	"reflect"
	"testing"

	"nomad/internal/check"
	"nomad/internal/mem"
	"nomad/internal/metrics"
	"nomad/internal/sim"
	"nomad/internal/workload"
)

// fakePort completes loads after a fixed delay and records issue counts.
type fakePort struct {
	eng    *sim.Engine
	delay  uint64
	loads  int
	stores int
	// maxConcurrent tracks the peak number of outstanding loads.
	outstanding   int
	maxConcurrent int
	// cause, when not StallSRAM, is written into every load's probe
	// (exercises per-cause stall attribution).
	cause mem.StallCause
}

func (p *fakePort) Load(core int, vaddr uint64, probe *mem.Probe, done func()) {
	p.loads++
	if probe != nil && p.cause != mem.StallSRAM {
		probe.SetCause(p.cause)
	}
	p.outstanding++
	if p.outstanding > p.maxConcurrent {
		p.maxConcurrent = p.outstanding
	}
	p.eng.Schedule(p.delay, func() {
		p.outstanding--
		done()
	})
}

func (p *fakePort) Store(core int, vaddr uint64) { p.stores++ }

// stream builds a workload whose every op has the given gap; write fraction
// zero unless stated.
func stream(gap int, writeFrac float64) *workload.Stream {
	return workload.NewStream(workload.Spec{
		Name: "t", FootprintPages: 64, RunBlocks: 64, SeqPageFrac: 1,
		GapMean: gap, WriteFrac: writeFrac,
	}, 1)
}

func newCore(eng *sim.Engine, cfg Config, wl *workload.Stream, delay uint64) (*Core, *fakePort) {
	p := &fakePort{eng: eng, delay: delay}
	c := New(0, cfg, p, wl)
	eng.AddTicker(c)
	return c, p
}

func TestComputeBoundIPC(t *testing.T) {
	eng := sim.New()
	// Huge gaps + instant loads: IPC should approach the width.
	c, _ := newCore(eng, Config{Width: 4, ROBSize: 128, MaxLoads: 8}, stream(1000, 0), 1)
	eng.Run(10000)
	if ipc := c.Stats().IPC(); ipc < 3.5 {
		t.Fatalf("compute-bound IPC = %.2f, want ~4", ipc)
	}
}

func TestMemoryBoundThroughput(t *testing.T) {
	eng := sim.New()
	// Gap 0, load latency 100, MLP 4: ~1 load per 25 cycles.
	c, p := newCore(eng, Config{Width: 4, ROBSize: 128, MaxLoads: 4}, stream(0, 0), 100)
	eng.Run(10000)
	if p.maxConcurrent > 4 {
		t.Fatalf("outstanding loads peaked at %d, cap 4", p.maxConcurrent)
	}
	got := float64(c.Stats().Loads) / 10000
	want := 4.0 / 100.0
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("load rate %.4f/cycle, want ~%.4f", got, want)
	}
	if c.Stats().MemStallCycles == 0 {
		t.Fatal("memory-bound run recorded no memory stalls")
	}
}

func TestMLPScalesThroughput(t *testing.T) {
	rate := func(mlp int) float64 {
		eng := sim.New()
		c, _ := newCore(eng, Config{Width: 4, ROBSize: 256, MaxLoads: mlp}, stream(0, 0), 100)
		eng.Run(20000)
		return c.Stats().IPC()
	}
	low, high := rate(2), rate(8)
	if high < low*2.5 {
		t.Fatalf("IPC with MLP 8 (%.3f) should be ~4x MLP 2 (%.3f)", high, low)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	eng := sim.New()
	// All stores, slow memory: the store buffer hides everything.
	c, p := newCore(eng, Config{Width: 4, ROBSize: 64, MaxLoads: 2}, stream(3, 1.0), 500)
	eng.Run(5000)
	if ipc := c.Stats().IPC(); ipc < 3.0 {
		t.Fatalf("store-only IPC = %.2f, want ~4 (store buffer)", ipc)
	}
	if p.stores == 0 {
		t.Fatal("no stores reached the port")
	}
}

func TestBlockSuspendsThread(t *testing.T) {
	eng := sim.New()
	c, _ := newCore(eng, Config{Width: 4, ROBSize: 64, MaxLoads: 4}, stream(10, 0), 10)
	eng.Run(100)
	before := c.Stats().Instructions
	c.Block()
	eng.Run(200)
	if c.Stats().Instructions != before {
		t.Fatal("blocked core retired instructions")
	}
	if c.Stats().OSBlockedCycles != 200 {
		t.Fatalf("OSBlockedCycles = %d, want 200", c.Stats().OSBlockedCycles)
	}
	c.Unblock()
	eng.Run(200)
	if c.Stats().Instructions == before {
		t.Fatal("unblocked core made no progress")
	}
	if c.Stats().OSBlockEvents != 1 {
		t.Fatalf("OSBlockEvents = %d, want 1", c.Stats().OSBlockEvents)
	}
}

func TestBlockNesting(t *testing.T) {
	eng := sim.New()
	c, _ := newCore(eng, Config{Width: 4, ROBSize: 64, MaxLoads: 4}, stream(10, 0), 10)
	c.Block()
	c.Block()
	c.Unblock()
	if !c.Blocked() {
		t.Fatal("nested block released too early")
	}
	c.Unblock()
	if c.Blocked() {
		t.Fatal("still blocked after matching unblocks")
	}
}

func TestUnblockWithoutBlockPanics(t *testing.T) {
	c := New(0, DefaultConfig(), &fakePort{eng: sim.New()}, stream(1, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Unblock without Block did not panic")
		}
	}()
	c.Unblock()
}

func TestROBBoundsInFlightInstructions(t *testing.T) {
	eng := sim.New()
	// ROB 16, loads never complete quickly: insertSeq-retireSeq <= 16.
	c, _ := newCore(eng, Config{Width: 4, ROBSize: 16, MaxLoads: 16}, stream(0, 0), 100000)
	eng.Run(1000)
	if occ := c.insertSeq - c.retireSeq; occ > 16 {
		t.Fatalf("ROB occupancy %d exceeds size 16", occ)
	}
	if c.Stats().Instructions != 0 {
		t.Fatal("retired past an incomplete load")
	}
}

func TestStallCauseAttribution(t *testing.T) {
	eng := sim.New()
	c, p := newCore(eng, Config{Width: 4, ROBSize: 128, MaxLoads: 4}, stream(0, 0), 100)
	p.cause = mem.StallDRAMQueue
	eng.Run(10000)
	s := c.Stats()
	var sum uint64
	for _, v := range s.MemStallByCause {
		sum += v
	}
	if sum != s.MemStallCycles {
		t.Fatalf("MemStallByCause sums to %d, MemStallCycles = %d", sum, s.MemStallCycles)
	}
	if s.MemStallCycles == 0 {
		t.Fatal("memory-bound run recorded no memory stalls")
	}
	// The port tags every load StallDRAMQueue, so every stalled cycle
	// must land in that bucket.
	if s.MemStallByCause[mem.StallDRAMQueue] != s.MemStallCycles {
		t.Fatalf("dram_queue bucket = %d, want all %d stall cycles",
			s.MemStallByCause[mem.StallDRAMQueue], s.MemStallCycles)
	}
}

func TestSpanSampling(t *testing.T) {
	eng := sim.New()
	c, _ := newCore(eng, Config{Width: 4, ROBSize: 128, MaxLoads: 4}, stream(0, 0), 50)
	ring := metrics.NewSpanRing(1 << 14)
	c.SetSpanTracing(ring, 4)
	eng.Run(20000)
	spans := ring.Spans()
	if len(spans) == 0 {
		t.Fatal("sampled run emitted no spans")
	}
	loads := c.Stats().Loads
	want := (loads + 3) / 4
	// Up to MaxLoads sampled loads may still be in flight at the horizon.
	if got := uint64(len(spans)); got < want-4 || got > want {
		t.Fatalf("got %d spans for %d loads at 1-in-4, want ~%d", got, loads, want)
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if s.Kind != metrics.SpanLoad {
			t.Fatalf("core emitted span kind %v, want load", s.Kind)
		}
		if s.End < s.Start {
			t.Fatalf("span ends (%d) before it starts (%d)", s.End, s.Start)
		}
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %#x", s.ID)
		}
		seen[s.ID] = true
		if seq := s.ID & (1<<40 - 1); (seq-1)%4 != 0 {
			t.Fatalf("span ID %#x is not a 1-in-4 sample", s.ID)
		}
	}
	// Disabling restores the untagged path.
	c.SetSpanTracing(nil, 0)
	before := ring.Len()
	eng.Run(5000)
	if ring.Len() != before {
		t.Fatal("spans emitted after tracing was disabled")
	}
}

func TestInstructionAccounting(t *testing.T) {
	eng := sim.New()
	c, p := newCore(eng, Config{Width: 4, ROBSize: 128, MaxLoads: 8}, stream(9, 0), 5)
	eng.Run(20000)
	s := c.Stats()
	// Each op is 9 gap instructions + 1 load: loads ~= instructions/10.
	ratio := float64(s.Instructions) / float64(p.loads)
	if ratio < 9 || ratio > 11.5 {
		t.Fatalf("instructions per load = %.2f, want ~10", ratio)
	}
	if s.Cycles != 20000 {
		t.Fatalf("cycles = %d", s.Cycles)
	}
}

// TestDefaultConfigValues pins the evaluation setup so the doc comment and
// the code cannot drift again: 6 outstanding loads is deliberate (DESIGN.md
// deviation #4), not the 16 an earlier comment claimed.
func TestDefaultConfigValues(t *testing.T) {
	got := DefaultConfig()
	want := Config{Width: 4, ROBSize: 224, MaxLoads: 6}
	if got != want {
		t.Fatalf("DefaultConfig() = %+v, want %+v", got, want)
	}
}

// TestFastForwardStatsEquivalence runs identical core workloads with
// fast-forward on and off and requires every statistic — including the
// per-cause stall breakdown a sleeping core charges lazily — to match
// exactly.
func TestFastForwardStatsEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		gap       int
		writeFrac float64
		delay     uint64
		cause     mem.StallCause
		block     bool
	}{
		{name: "memory-bound", gap: 0, delay: 100, cause: mem.StallDRAMQueue},
		{name: "compute-bound", gap: 1000, delay: 1},
		{name: "mixed", gap: 10, writeFrac: 0.3, delay: 50, cause: mem.StallPCSHR},
		{name: "blocked", gap: 10, delay: 10, block: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ff bool) *Stats {
				eng := sim.New()
				eng.SetFastForward(ff)
				c, p := newCore(eng, Config{Width: 4, ROBSize: 64, MaxLoads: 4}, stream(tc.gap, tc.writeFrac), tc.delay)
				p.cause = tc.cause
				if tc.block {
					// An OS routine: suspended from cycle 100 until an
					// event 5000 cycles later resumes the thread.
					eng.Run(100)
					c.Block()
					eng.Schedule(5000, c.Unblock)
				}
				eng.Run(10000)
				return c.Stats()
			}
			on, off := run(true), run(false)
			if !reflect.DeepEqual(on, off) {
				t.Fatalf("stats diverge:\n  ff on:  %+v\n  ff off: %+v", on, off)
			}
		})
	}
}

// causePort completes loads after a fixed delay and keeps the probes of
// outstanding loads so tests can move their causes. With events set, each
// load's cause also moves twice from the event phase while it is in flight.
type causePort struct {
	eng    *sim.Engine
	delay  uint64
	events bool
	probes []*mem.Probe
}

func (p *causePort) Load(core int, vaddr uint64, probe *mem.Probe, done func()) {
	p.probes = append(p.probes, probe)
	if p.events {
		p.eng.Schedule(p.delay/3, func() { probe.SetCause(mem.StallDRAMQueue) })
		p.eng.Schedule(2*p.delay/3, func() { probe.SetCause(mem.StallBus) })
	}
	p.eng.Schedule(p.delay, func() {
		for i, q := range p.probes {
			if q == probe {
				p.probes = append(p.probes[:i], p.probes[i+1:]...)
				break
			}
		}
		done()
	})
}

func (p *causePort) Store(core int, vaddr uint64) {}

// moveCauses returns a ticker that, every fifth cycle, moves the cause of
// every outstanding load.
func (p *causePort) moveCauses() sim.TickerFunc {
	return func(now uint64) {
		if now%5 == 0 {
			for _, q := range p.probes {
				q.SetCause(mem.StallCause(now / 5 % mem.NumStallCauses))
			}
		}
	}
}

// TestFastForwardSleepingCoreStats: a core that sleeps on a head-of-ROB
// stall must end with exactly the polled core's Stats when the head load's
// cause changes while it sleeps — from the event phase, and from the ticker
// phase of a ticker registered before or after it (woken in the same cycle
// or the next).
func TestFastForwardSleepingCoreStats(t *testing.T) {
	for _, phase := range []string{"event", "ticker-before", "ticker-after"} {
		t.Run(phase, func(t *testing.T) {
			run := func(ff bool) (*Stats, int) {
				eng := sim.New()
				eng.SetFastForward(ff)
				p := &causePort{eng: eng, delay: 90, events: phase == "event"}
				c := New(0, Config{Width: 4, ROBSize: 64, MaxLoads: 4}, p, stream(2, 0))
				if phase == "ticker-before" {
					eng.AddTicker(p.moveCauses())
				}
				eng.AddTicker(c)
				if phase == "ticker-after" {
					eng.AddTicker(p.moveCauses())
				}
				slept := 0
				eng.AddTicker(sim.TickerFunc(func(uint64) {
					if c.asleep {
						slept++
					}
				}))
				eng.Run(20_000)
				return c.Stats(), slept
			}
			on, slept := run(true)
			off, _ := run(false)
			if !reflect.DeepEqual(on, off) {
				t.Fatalf("stats diverge:\n  sleeping: %+v\n  polled:   %+v", on, off)
			}
			if slept == 0 {
				t.Fatal("the core never slept")
			}
		})
	}
}

// chainPort completes each load by scheduling the core's own prebuilt done
// callback, so nothing on the load path allocates.
type chainPort struct {
	eng   *sim.Engine
	delay uint64
}

func (p chainPort) Load(core int, vaddr uint64, probe *mem.Probe, done func()) {
	p.eng.Schedule(p.delay, done)
}

func (p chainPort) Store(core int, vaddr uint64) {}

// TestSleepWakeDoesNotAllocate pins 0 allocs for a core falling asleep on
// its outstanding loads, the clock jumping, and the completions waking it.
func TestSleepWakeDoesNotAllocate(t *testing.T) {
	if check.Enabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	eng := sim.New()
	// Four loads issue together and complete 127 cycles later; the core
	// wakes the next cycle and issues four more, so events recur every 128
	// cycles and reuse the same timing-wheel buckets once warm.
	c := New(0, Config{Width: 4, ROBSize: 64, MaxLoads: 4}, chainPort{eng, 127}, stream(0, 0))
	eng.AddTicker(c)
	eng.Run(10_000)
	jumps := eng.Jumps()
	if allocs := testing.AllocsPerRun(20, func() { eng.Run(1000) }); allocs != 0 {
		t.Fatalf("sleep/wake cycle allocates %.1f times per 1000 cycles", allocs)
	}
	if eng.Jumps() == jumps {
		t.Fatal("the core never slept: the clock never jumped")
	}
}
